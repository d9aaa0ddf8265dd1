package sim

import (
	"strings"
	"testing"

	"eds/internal/gen"
)

func TestTraceRecordsProfile(t *testing.T) {
	g := gen.Cycle(5)
	tr, opt := NewTrace()
	res, err := RunSequential(g, sumAlg(3), opt)
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if len(tr.Rounds) != res.Rounds {
		t.Errorf("trace has %d rounds, result says %d", len(tr.Rounds), res.Rounds)
	}
	if tr.TotalMessages() != res.Messages {
		t.Errorf("trace counted %d messages, result says %d", tr.TotalMessages(), res.Messages)
	}
	totals := tr.TypeTotals()
	if totals["int"] != res.Messages {
		t.Errorf("TypeTotals = %v, want all %d messages of type int", totals, res.Messages)
	}
	out := tr.String()
	for _, want := range []string{"rounds: 3", "int", "busiest round"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

func TestTraceEmptyRun(t *testing.T) {
	g := gen.PerfectMatching(2)
	tr, opt := NewTrace()
	// markAlg stops after one round.
	if _, err := RunSequential(g, markAlg, opt); err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if len(tr.Rounds) != 1 {
		t.Errorf("rounds = %d, want 1", len(tr.Rounds))
	}
}
