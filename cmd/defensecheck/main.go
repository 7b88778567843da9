// Command defensecheck evaluates the Section VII defenses: the IPC
// (Binder) based detector, the enhanced-notification delayed-removal
// patch, and the static scan-before-install vetting pass built on the
// call-graph capability detectors.
//
// Usage:
//
//	defensecheck
//	defensecheck -seed 7 -vet-n 500 -vet-show 5
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/faults"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 42, "simulation seed")
	vetN := flag.Int("vet-n", 300, "market slice size for the static vetting pass")
	vetShow := flag.Int("vet-show", 3, "max denial verdicts to print with full evidence traces")
	flag.Parse()

	ipc, err := experiment.DefenseIPC(*seed, faults.None())
	if err != nil {
		fmt.Fprintf(os.Stderr, "defensecheck: ipc: %v\n", err)
		return 1
	}
	fmt.Print(experiment.RenderDefenseIPC(ipc))
	fmt.Println()
	notif, err := experiment.DefenseNotif(*seed, faults.None())
	if err != nil {
		fmt.Fprintf(os.Stderr, "defensecheck: notif: %v\n", err)
		return 1
	}
	fmt.Print(experiment.RenderDefenseNotif(notif))
	fmt.Println()
	vet, err := experiment.DefenseVet(*seed, *vetN)
	if err != nil {
		fmt.Fprintf(os.Stderr, "defensecheck: vet: %v\n", err)
		return 1
	}
	fmt.Print(experiment.RenderDefenseVet(vet, *vetShow))
	return 0
}
