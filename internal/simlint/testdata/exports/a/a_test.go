package a

import "testing"

func TestA(t *testing.T) {
	if OnlyOwnTest()+Exempted()+Set(nil).Unused() != 8 {
		t.Fatal("sum")
	}
}
