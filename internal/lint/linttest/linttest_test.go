package linttest_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture module seeds at least one violation per diagnostic family
// next to conforming code, so these tests prove both directions: the
// analyzer fires where it must and stays quiet where it must not.

func TestHotPathAllocFixture(t *testing.T) {
	linttest.Run(t, "testdata/hotpathalloc", lint.HotPathAlloc)
}

func TestCacheKeyFixture(t *testing.T) {
	linttest.Run(t, "testdata/cachekey", lint.CacheKey)
}

func TestDetSourceFixture(t *testing.T) {
	linttest.Run(t, "testdata/detsource", lint.DetSource)
}

// AnnotCheck has no waiver directive by design; its fixture's
// honored-waiver half is the conforming placements staying quiet.
func TestAnnotCheckFixture(t *testing.T) {
	linttest.Run(t, "testdata/annotcheck", lint.AnnotCheck)
}
