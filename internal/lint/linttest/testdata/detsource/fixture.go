// Package fixture is determinism-checked: detsource flags host clocks,
// host randomness, goroutine launches, and map-iteration-order
// leaks here, each next to its waived or conforming twin.
//
//vpr:detpkg
package fixture

import (
	"math/rand"
	"time"
)

// tick reads the host clock with no waiver.
func tick() int64 {
	return time.Now().UnixNano() // want `time.Now in determinism-checked package fixture`
}

// throughput is host-side accounting by design.
//
//vpr:wallclock host-throughput metric; never feeds simulated state
func throughput(start time.Time) time.Duration {
	return time.Since(start)
}

// jitter draws host randomness.
func jitter() int {
	return rand.Intn(8) // want `math/rand call rand.Intn in determinism-checked package fixture`
}

// logged reads the clock under a line waiver.
func logged() int64 {
	//vpr:detexempt fixture: value is logged, never fed back into state
	return time.Now().Unix()
}

// spawn launches a goroutine: there is no sanctioned concurrency site.
func spawn() {
	go tick() // want `go statement in determinism-checked package fixture — a simulation runs on one goroutine`
}

// spawnWaived shows that no waiver excuses a goroutine launch.
func spawnWaived() {
	//vpr:detexempt fixture: a waiver does not cover go statements
	go tick() // want `go statement in determinism-checked package fixture`
}

// total leaks map iteration order into an outer accumulator.
func total(m map[string]int) int {
	sum := 0
	for _, v := range m { // want `map-range loop writes sum, declared outside the loop`
		sum += v
	}
	return sum
}

// totalWaived is the same shape with its order-insensitivity argued.
func totalWaived(m map[string]int) int {
	sum := 0
	//vpr:detexempt fixture: integer addition is order-insensitive
	for _, v := range m {
		sum += v
	}
	return sum
}

// localOnly writes nothing that outlives the loop: quiet.
func localOnly(m map[string]int) int {
	last := 0
	for k, v := range m {
		w := v * 2
		if k == "" {
			w++
		}
		_ = w
	}
	return last
}
