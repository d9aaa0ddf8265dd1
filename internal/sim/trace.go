package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Trace records the message profile of an execution round by round:
// how many messages were sent and of which kinds. Attach it to any run
// with its Option; it is the machinery behind the per-phase
// communication profiles in the experiment reports. Traces do not depend
// on the shard count (a property test in engines_test.go enforces it).
type Trace struct {
	Rounds []RoundTrace
}

// RoundTrace is one round's profile: the message count, and the same
// messages counted by kind name.
type RoundTrace struct {
	Round    int
	Messages int
	ByKind   map[string]int
}

// NewTrace returns an empty trace and the option that attaches it to a
// run. kind names the kind of a non-empty message; a Message is an
// opaque word to the engine, so the algorithm's package supplies it
// (core.MessageKind for the paper's algorithms).
func NewTrace(kind func(Message) string) (*Trace, Option) {
	t := &Trace{}
	return t, WithRoundHook(func(round int, sent [][]Message) {
		rt := RoundTrace{Round: round, ByKind: make(map[string]int)}
		for _, row := range sent {
			for _, m := range row {
				if m != 0 {
					rt.Messages++
					rt.ByKind[kind(m)]++
				}
			}
		}
		t.Rounds = append(t.Rounds, rt)
	})
}

// TotalMessages sums the messages over all rounds.
func (t *Trace) TotalMessages() int {
	total := 0
	for _, r := range t.Rounds {
		total += r.Messages
	}
	return total
}

// KindTotals aggregates the per-kind counts over the whole run.
func (t *Trace) KindTotals() map[string]int {
	out := make(map[string]int)
	for _, r := range t.Rounds {
		for kind, c := range r.ByKind {
			out[kind] += c
		}
	}
	return out
}

// String renders a compact profile: total rounds and messages, the
// per-kind totals, and the busiest round.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds: %d, messages: %d\n", len(t.Rounds), t.TotalMessages())
	totals := t.KindTotals()
	kinds := make([]string, 0, len(totals))
	for kind := range totals {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		fmt.Fprintf(&sb, "  %-24s %6d\n", kind, totals[kind])
	}
	busiest := -1
	for i, r := range t.Rounds {
		if busiest == -1 || r.Messages > t.Rounds[busiest].Messages {
			busiest = i
		}
	}
	if busiest >= 0 {
		fmt.Fprintf(&sb, "busiest round: %d with %d messages\n",
			t.Rounds[busiest].Round, t.Rounds[busiest].Messages)
	}
	return sb.String()
}
