package dse

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/obs"
	"xdse/internal/search"
)

// countingModel counts the calls a domain model receives per payload. The
// engine calls its model from the exploring goroutine only.
type countingModel struct {
	DomainModel
	subCosts    map[any]int
	objective   map[subCall]int
	constraints map[any]int
}

type subCall struct {
	raw any
	sub int
}

func newCountingModel(inner DomainModel) *countingModel {
	return &countingModel{DomainModel: inner, subCosts: map[any]int{}, objective: map[subCall]int{}, constraints: map[any]int{}}
}

func (c *countingModel) SubCosts(raw any) []float64 {
	c.subCosts[raw]++
	return c.DomainModel.SubCosts(raw)
}

func (c *countingModel) MitigateObjective(raw any, sub, k int) ([]search.Prediction, string) {
	c.objective[subCall{raw, sub}]++
	return c.DomainModel.MitigateObjective(raw, sub, k)
}

func (c *countingModel) MitigateConstraints(raw any) ([]search.Prediction, string) {
	c.constraints[raw]++
	return c.DomainModel.MitigateConstraints(raw)
}

// runCounted explores the toy domain with a CollectSink attached and
// returns the model's call counts and the event stream. A constrained run
// starts at full bandwidth under an area cap that the smallest PE array
// already exceeds there, so attempts stall on the constraint path too.
func runCounted(constrained bool) (*countingModel, []obs.Event) {
	m := newToyModel()
	m.subs = []float64{0.9, 0.5, 0.2}
	cm := newCountingModel(m)
	var sink obs.CollectSink
	p := newToyProblem(m, 100)
	p.Events = &sink
	if constrained {
		m.areaCap = 5
		p.Initial = m.space.Initial()
		p.Initial[arch.PBW] = len(m.space.Params[arch.PBW].Values) - 1
	}
	New(cm).Run(p, rand.New(rand.NewSource(1)))
	return cm, sink.Events()
}

// TestIncumbentAnalyzedOnce checks that the engine asks the model about
// each incumbent once: an attempt after a stalled one reuses the analysis
// of the unchanged incumbent, and an adopted solution is analyzed afresh.
func TestIncumbentAnalyzedOnce(t *testing.T) {
	for name, constrained := range map[string]bool{"objective": false, "constraints": true} {
		t.Run(name, func(t *testing.T) {
			cm, evs := runCounted(constrained)
			// An attempt needs a fresh analysis when it is the first or
			// its predecessor adopted a new solution.
			attempts, fresh, stalled := 0, 0, 0
			improved := map[int]bool{}
			for _, ev := range evs {
				switch ev.Kind {
				case obs.KindIncumbentImproved:
					improved[ev.Attempt] = true
				case obs.KindStepStalled:
					stalled++
				}
			}
			for _, ev := range evs {
				if ev.Kind == obs.KindStepStarted {
					attempts++
					if ev.Attempt == 1 || improved[ev.Attempt-1] {
						fresh++
					}
				}
			}
			if stalled == 0 || fresh == attempts {
				t.Fatalf("no attempt followed a stalled one (%d attempts, %d stalled): nothing to reuse", attempts, stalled)
			}
			analyzed := map[any]bool{}
			for raw, n := range cm.subCosts {
				analyzed[raw] = true
				if n != 1 {
					t.Errorf("SubCosts ran %d times on one incumbent", n)
				}
			}
			for raw, n := range cm.constraints {
				analyzed[raw] = true
				if n != 1 {
					t.Errorf("MitigateConstraints ran %d times on one incumbent", n)
				}
			}
			for call, n := range cm.objective {
				if n != 1 {
					t.Errorf("MitigateObjective ran %d times on sub-function %d of one incumbent", n, call.sub)
				}
			}
			if len(analyzed) != fresh {
				t.Fatalf("%d incumbents analyzed over %d attempts, want %d (one per adopted solution)", len(analyzed), attempts, fresh)
			}
			if constrained && len(cm.constraints) == 0 {
				t.Fatal("the constraint path never ran")
			}
		})
	}
}

// TestStalledAttemptReemitsAnalysis checks that an attempt after a stalled
// one emits the same analysis events as the attempt before it: only the
// attempt number and the note's "--- attempt N ---" header differ.
func TestStalledAttemptReemitsAnalysis(t *testing.T) {
	for name, constrained := range map[string]bool{"objective": false, "constraints": true} {
		t.Run(name, func(t *testing.T) {
			_, evs := runCounted(constrained)
			byAttempt := map[int][]obs.Event{}
			stalled := map[int]bool{}
			for _, ev := range evs {
				switch {
				case ev.Kind == obs.KindStepStalled:
					stalled[ev.Attempt] = true
				case ev.Kind == obs.KindBottleneckIdentified, ev.Kind == obs.KindConstraintMitigation,
					ev.Kind == obs.KindMitigationProposed,
					ev.Kind == obs.KindNote && strings.HasPrefix(ev.Text, "--- attempt "):
					byAttempt[ev.Attempt] = append(byAttempt[ev.Attempt], ev)
				}
			}
			compared, constraintEvents := 0, 0
			for a, cur := range byAttempt {
				if !stalled[a-1] {
					continue
				}
				prev := byAttempt[a-1]
				if len(prev) == 0 || len(cur) != len(prev) {
					t.Fatalf("attempt %d emitted %d analysis events, attempt %d emitted %d", a, len(cur), a-1, len(prev))
				}
				for i := range cur {
					p, c := prev[i], cur[i]
					if c.Attempt != a {
						t.Fatalf("attempt %d re-emitted an event stamped attempt %d", a, c.Attempt)
					}
					if c.Kind == obs.KindNote {
						header := "--- attempt " + strconv.Itoa(a) + " ---\n"
						if !strings.HasPrefix(c.Text, header) {
							t.Fatalf("attempt %d note does not start with %q", a, header)
						}
						c.Text = strings.TrimPrefix(c.Text, header)
						p.Text = strings.TrimPrefix(p.Text, "--- attempt "+strconv.Itoa(a-1)+" ---\n")
					}
					c.Attempt = p.Attempt
					if !c.EqualDeterministic(p) {
						t.Fatalf("attempt %d event %d differs from attempt %d's:\n got %+v\nwant %+v", a, i, a-1, c, p)
					}
					if c.Kind == obs.KindConstraintMitigation {
						constraintEvents++
					}
				}
				compared++
			}
			if compared == 0 {
				t.Fatal("no attempt followed a stalled one")
			}
			if constrained && constraintEvents == 0 {
				t.Fatal("no attempt re-emitted a constraint analysis")
			}
		})
	}
}
