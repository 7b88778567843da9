package a_test

import (
	"testing"

	"fixture/a"
)

// An external test package is still a's own test.
func TestOnlyOwnTest(t *testing.T) {
	if a.OnlyOwnTest() != 1 {
		t.Fatal("OnlyOwnTest")
	}
}
