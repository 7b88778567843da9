package main

import (
	"fmt"
	"sort"

	"fixture/a"
)

func main() {
	s := a.Set{3, 1, 2}
	sort.Sort(s)
	fmt.Println(s)
}
