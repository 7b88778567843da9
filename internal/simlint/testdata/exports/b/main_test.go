package main

import (
	"testing"

	"fixture/a"
)

func TestUsesA(t *testing.T) {
	if a.UsedByOtherTest() != 2 {
		t.Fatal("UsedByOtherTest")
	}
}
