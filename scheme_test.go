package ppml_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/ppml-go/ppml"
	"github.com/ppml-go/ppml/internal/consensus"
	"github.com/ppml-go/ppml/internal/mapreduce"
)

func TestParseSchemeRoundTrip(t *testing.T) {
	names := ppml.SchemeNames()
	if want := []string{"horizontal-linear", "horizontal-kernel", "vertical-linear", "vertical-kernel"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("schemes in the table = %v, want the paper's four %v", names, want)
	}
	for i, name := range names {
		s, err := ppml.ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		if s != ppml.Scheme(i+1) || s.String() != name {
			t.Errorf("ParseScheme(%q) = %d (%s), want scheme %d", name, int(s), s, i+1)
		}
	}
	// A retired scheme's name is as unknown as a made-up one.
	for _, unknown := range []string{"diagonal-linear", "horizontal-logistic", "horizontal-naivebayes"} {
		_, err := ppml.ParseScheme(unknown)
		if !errors.Is(err, ppml.ErrBadRequest) {
			t.Fatalf("ParseScheme(%q): err = %v, want ErrBadRequest", unknown, err)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-scheme error %q does not list %q", err, name)
			}
		}
	}
}

// TestTrainRequestRules: every rule TrainContext enforces before it partitions
// anything, over every row of the scheme table.
func TestTrainRequestRules(t *testing.T) {
	train, _ := prepared(t, 80)
	linear := map[ppml.Scheme]bool{ppml.HorizontalLinear: true, ppml.VerticalLinear: true}
	vertical := map[ppml.Scheme]bool{ppml.VerticalLinear: true, ppml.VerticalKernel: true}
	quick := []ppml.Option{ppml.WithLearners(2), ppml.WithIterations(2), ppml.WithKernel(ppml.RBFKernel(0.1))}
	with := func(extra ...ppml.Option) []ppml.Option {
		return append(append([]ppml.Option(nil), quick...), extra...)
	}
	for i := range ppml.SchemeNames() {
		s := ppml.Scheme(i + 1)
		for _, rule := range []struct {
			name string
			data *ppml.Dataset
			opts []ppml.Option
			bad  bool
		}{
			{"plain request", train, with(), false},
			{"nil data", nil, with(), true},
			{"no learners", train, with(ppml.WithLearners(0)), true},
			{"DP output", train, with(ppml.WithDPOutput(1)), !linear[s]},
			{"secure standardization", train, with(ppml.WithSecureStandardization()), vertical[s]},
		} {
			_, err := ppml.Train(rule.data, s, rule.opts...)
			switch {
			case rule.bad && !errors.Is(err, ppml.ErrBadRequest):
				t.Errorf("%s, %s: err = %v, want ErrBadRequest", s, rule.name, err)
			case !rule.bad && err != nil:
				t.Errorf("%s, %s: %v", s, rule.name, err)
			}
		}
	}
	for _, s := range []ppml.Scheme{0, -1, ppml.Scheme(len(ppml.SchemeNames()) + 1)} {
		if _, err := ppml.Train(train, s, quick...); !errors.Is(err, ppml.ErrBadRequest) {
			t.Errorf("scheme %d: err = %v, want ErrBadRequest", int(s), err)
		}
	}
}

// TestOptionSurfacePinned holds the two configuration structs under the
// public options at their field counts; scripts/check.sh pins the With*
// functions the same way.
func TestOptionSurfacePinned(t *testing.T) {
	const grow = "a new option needs two callers with different values — see ROADMAP"
	if n := reflect.TypeOf(consensus.Config{}).NumField(); n != 15 {
		t.Errorf("consensus.Config has %d fields, pinned at 15: %s", n, grow)
	}
	exported := 0
	opts := reflect.TypeOf(mapreduce.DriverOptions{})
	for i := 0; i < opts.NumField(); i++ {
		if opts.Field(i).IsExported() {
			exported++
		}
	}
	if exported != 5 {
		t.Errorf("mapreduce.DriverOptions has %d exported fields, pinned at 5: %s", exported, grow)
	}
}
