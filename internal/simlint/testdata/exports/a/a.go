// Package a holds the exports TestTestOnlyExportsFixture checks the
// matcher on.
package a

// OnlyOwnTest is reached only by a's own tests: flagged.
func OnlyOwnTest() int { return 1 }

// UsedByOtherTest is reached by package b's test: not flagged.
func UsedByOtherTest() int { return 2 }

// Exempted is reached only by a's own test, and exempted: not flagged.
func Exempted() int { return 3 }

// UsedInPackage is reached by a non-test file of its own package: not
// flagged.
func UsedInPackage() int { return 4 }

// UsedByNested is reached by a nested module's non-test file: not
// flagged.
func UsedByNested() int { return 5 }

// Set satisfies sort.Interface, which package b sorts it through.
type Set []int

func (s Set) Len() int           { return len(s) }
func (s Set) Less(i, j int) bool { return s[i] < s[j] }
func (s Set) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Unused is declared by no interface and reached only by a's own test:
// flagged.
func (s Set) Unused() int { return UsedInPackage() }
