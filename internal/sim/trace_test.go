package sim

import (
	"strings"
	"testing"

	"eds/internal/gen"
)

func TestTraceRecordsProfile(t *testing.T) {
	g := gen.Cycle(5)
	tr, opt := NewTrace(func(Message) string { return "sum" })
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
	totals := tr.KindTotals()
	if totals["sum"] != res.Messages {
		t.Errorf("KindTotals = %v, want all %d messages of kind sum", totals, res.Messages)
	}
	out := tr.String()
	for _, want := range []string{"rounds: 3", "sum", "busiest round"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

func TestTraceEmptyRun(t *testing.T) {
	g := gen.PerfectMatching(2)
	tr, opt := NewTrace(func(Message) string { return "mark" })
	// markAlg stops after one round.
	if _, err := RunSequential(g, markAlg, opt); err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if len(tr.Rounds) != 1 {
		t.Errorf("rounds = %d, want 1", len(tr.Rounds))
	}
}
