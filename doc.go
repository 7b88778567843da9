// Package repro is a full reproduction, in pure Go, of "Implication of
// Animation on Android Security" (Wang et al., ICDCS 2022): the
// draw-and-destroy overlay attack, the draw-and-destroy toast attack, the
// combined password-stealing attack, the Section VII defenses, and a
// simulated Android UI stack (Binder, Window Manager, Notification
// Manager, System UI animations) faithful enough to reproduce every table
// and figure of the paper's evaluation.
//
// Layout:
//
//	internal/core        the paper's attacks (Sections III–V)
//	internal/defense     the Section VII mitigations
//	internal/experiment  one runner per table/figure (Section VI)
//	internal/...         the simulated Android substrates
//	cmd/animbench        regenerate all tables and figures
//	cmd/animsim          run a single attack scenario with a timeline
//	cmd/defensecheck     evaluate both defenses
//	examples/            runnable walk-throughs of the public API
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-versus-measured results.
// The root-level benchmarks (bench_test.go) regenerate each experiment
// under `go test -bench`.
package repro
