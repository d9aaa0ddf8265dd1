package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Trace records the message profile of an execution round by round:
// how many messages were sent and of which payload types. Attach it to
// any run with its Option; it is the machinery behind the per-phase
// communication profiles in the experiment reports. Traces do not depend
// on the shard count (a property test in engines_test.go enforces it).
type Trace struct {
	Rounds []RoundTrace
}

// RoundTrace is one round's profile.
type RoundTrace struct {
	Round    int
	Messages int
	ByType   map[string]int
}

// NewTrace returns an empty trace and the option that attaches it to a
// run.
func NewTrace() (*Trace, Option) {
	t := &Trace{}
	return t, WithRoundHook(func(round int, sent [][]Message) {
		rt := RoundTrace{Round: round, ByType: make(map[string]int)}
		for _, row := range sent {
			for _, m := range row {
				if m != nil {
					rt.Messages++
					rt.ByType[fmt.Sprintf("%T", m)]++
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

// TypeTotals aggregates the per-type counts over the whole run.
func (t *Trace) TypeTotals() map[string]int {
	out := make(map[string]int)
	for _, r := range t.Rounds {
		for typ, c := range r.ByType {
			out[typ] += c
		}
	}
	return out
}

// String renders a compact profile: total rounds and messages, the
// per-type totals, and the busiest round.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds: %d, messages: %d\n", len(t.Rounds), t.TotalMessages())
	totals := t.TypeTotals()
	types := make([]string, 0, len(totals))
	for typ := range totals {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		fmt.Fprintf(&sb, "  %-24s %6d\n", typ, totals[typ])
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
