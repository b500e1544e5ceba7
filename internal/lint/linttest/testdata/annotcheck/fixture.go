// Package fixture seeds annotcheck violations — three unknown directives,
// six misplacements, and malformed arguments — next to conforming
// directives. AnnotCheck takes no waiver: a bad directive
// is fixed, not excused, so the honored-waiver half of this fixture is
// the conforming placements staying quiet.
package fixture

// hot carries a conforming function directive.
//
//vpr:hotpath
func hot() {}

// typo misspells hotpath, which would silently disable the check.
//
//vpr:hotpth // want `unknown //vpr: directive "hotpth"`
func typo() {}

// misplacedKey puts a struct directive on a function.
//
//vpr:cachekey // want `//vpr:cachekey is misplaced on a function declaration — it belongs on a struct type declaration`
func misplacedKey() {}

// S carries a line waiver in its type doc, where no line exists.
//
//vpr:allowalloc stray reason // want `//vpr:allowalloc is misplaced on a struct type declaration — it belongs on a statement line`
type S struct {
	// N shows a conforming field directive.
	//
	//vpr:nocachekey display only
	N int64
}

// Constants take no directives at all.
//
//vpr:cachekey // want `//vpr:cachekey is misplaced on a declaration that takes no directives`
const answer = 42

// noArg forgets keyfunc's TYPE argument.
//
//vpr:keyfunc // want `//vpr:keyfunc needs exactly 1 argument\(s\), got 0`
func noArg() {}

// chatty hands hotpath an argument it does not take.
//
//vpr:hotpath gotta go fast // want `//vpr:hotpath takes no arguments, got "gotta go fast"`
func chatty() {}

// Port puts a struct directive on an interface, and a directive that is
// not in the table on one of its methods.
//
//vpr:cachekey // want `//vpr:cachekey is misplaced on an interface type declaration — it belongs on a struct type declaration`
type Port interface {
	// Write mutates.
	//
	//vpr:memphase // want `unknown //vpr: directive "memphase"`
	Write(v int)
	Len() int
}

// Keyless puts the key-renderer directive on a struct instead of its
// renderer function.
//
//vpr:keyfunc Keyless // want `//vpr:keyfunc is misplaced on a struct type declaration — it belongs on a function declaration`
type Keyless struct{ N int }

// waived puts the field-only observer waiver on a function.
//
//vpr:nocachekey pure observer // want `//vpr:nocachekey is misplaced on a function declaration — it belongs on a struct field`
func waived() {}

// table is a registration table still carrying a directive of the
// retired reghygiene analyzer: it no longer names anything, so it is
// reported rather than silently kept.
//
//vpr:registry tables // want `unknown //vpr: directive "registry"`
var table = []string{"a", "b"}

// use keeps the declarations referenced.
func use() {
	hot()
	typo()
	misplacedKey()
	noArg()
	chatty()
	waived()
	_ = S{N: answer}
	_ = Keyless{N: 1}
	_ = table
}
