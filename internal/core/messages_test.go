package core

import (
	"testing"

	"eds/internal/sim"
)

func TestLabelRoundTrip(t *testing.T) {
	const most = 1<<labelBits - 1
	for _, c := range [][2]int{{1, 1}, {3, 5}, {64, 65}, {most, most}, {1, most}, {most, 1}} {
		m := labelMsg(c[0], c[1])
		if m == 0 || kindOf(m) != kindLabel {
			t.Fatalf("labelMsg(%d, %d) = %#x: not a label", c[0], c[1], m)
		}
		if port, deg := labelOf(m); port != c[0] || deg != c[1] {
			t.Errorf("labelOf(labelMsg(%d, %d)) = (%d, %d)", c[0], c[1], port, deg)
		}
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestOversizedPayloadsPanic(t *testing.T) {
	mustPanic(t, "label with an oversized port", func() { labelMsg(1<<labelBits, 1) })
	mustPanic(t, "label with an oversized degree", func() { labelMsg(1, 1<<labelBits) })
	mustPanic(t, "label with a negative port", func() { labelMsg(-1, 1) })
	mustPanic(t, "payload over payloadBits", func() { pack(kindID, 1<<payloadBits) })
	mustPanic(t, "label exchange reading an empty slot", func() { labelOf(0) })
	mustPanic(t, "label exchange reading a status", func() { labelOf(flagMsg(kindStatus, true)) })
}

func TestMessagesAreDistinctAndNamed(t *testing.T) {
	if got := pack(kindID, 1<<payloadBits-1); payloadOf(got) != 1<<payloadBits-1 || kindOf(got) != kindID {
		t.Errorf("largest ID does not round-trip: %#x", got)
	}
	seen := map[sim.Message]string{}
	for k := kindMark; k <= kindPoint; k++ {
		for _, b := range []bool{false, true} {
			m := flagMsg(k, b)
			if m == 0 {
				t.Errorf("flagMsg(%s, %v) is the empty message", MessageKind(m), b)
			}
			if prev, dup := seen[m]; dup {
				t.Errorf("flagMsg(%s, %v) = %#x, same as %s", MessageKind(m), b, m, prev)
			}
			seen[m] = MessageKind(m)
			if kindOf(m) != k || (payloadOf(m) != 0) != b {
				t.Errorf("flagMsg(%d, %v) = %#x decodes to kind %d flag %v", k, b, m, kindOf(m), payloadOf(m) != 0)
			}
		}
	}
	for m, want := range map[sim.Message]string{
		msgMark: "mark", msgProposal: "proposal", msgPoint: "point",
		labelMsg(2, 3): "label", flagMsg(kindProbeRespond, true): "probe-respond",
	} {
		if got := MessageKind(m); got != want {
			t.Errorf("MessageKind(%#x) = %q, want %q", m, got, want)
		}
	}
}
