package experiment

import "fmt"

// oneShot adapts a single-run experiment — one that produces its whole
// report from one function call — to the Experiment interface: a trial set
// of exactly one trial whose journaled result is the rendered report text.
type oneShot struct {
	name   string
	params string
	run    func(seed int64) (string, error)
}

func (e *oneShot) Name() string   { return e.name }
func (e *oneShot) Params() string { return e.params }

func (e *oneShot) Trials(seed int64) ([]Trial, error) {
	return []Trial{NewTrial(
		fmt.Sprintf("%s seed=%d params=%q", e.name, seed, e.params),
		e.name,
		func() (string, error) { return e.run(seed) },
	)}, nil
}

func (e *oneShot) Render(results []any) (Output, error) {
	return Output{Text: Res[string](results, 0)}, nil
}

// single builds a oneShot from a report runner and the renderer of its
// report.
func single[R any](name, params string, run func(seed int64) (R, error), render func(R) string) *oneShot {
	return &oneShot{name: name, params: params, run: func(seed int64) (string, error) {
		r, err := run(seed)
		if err != nil {
			return "", err
		}
		return render(r), nil
	}}
}
