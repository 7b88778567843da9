package nested

import "fixture/a"

// Five reports a value through the outer module's API.
func Five() int { return a.UsedByNested() }
