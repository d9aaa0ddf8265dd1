package core

import (
	"fmt"

	"eds/internal/sim"
)

// Messages exchanged by the algorithms. They are deliberately tiny: the
// port-numbering model does not bound message size, but every protocol
// in the paper needs only a few bits per round, well within one
// sim.Message word. A message packs a non-zero kind tag into its low
// kindBits bits and the kind's payload above them, so the empty message
// 0 is never a valid message of any kind.

// msgKind tags what a message means.
type msgKind uint8

const (
	// kindMark marks an edge as selected (Theorem 3).
	kindMark msgKind = iota + 1
	// kindLabel carries the sender's port number and degree over that
	// port; the receiving endpoint learns the edge's label pair and its
	// neighbour's degree (the first round of Theorems 4 and 5).
	kindLabel
	// kindPropose opens the two-round processing of one distinguishable
	// edge in M_G(i,j): the proposer is the node whose distinguishable
	// edge this is. The flag reports whether the proposer is already
	// covered by the set under construction.
	kindPropose
	// kindRespond closes the two-round processing of one distinguishable
	// edge; the flag is the joint decision to add it.
	kindRespond
	// kindProbe opens the two-round pruning of one edge of D ∩ M_G(i,j)
	// in phase II of Theorem 4. The flag reports whether the probing
	// endpoint remains covered by D \ {e}.
	kindProbe
	// kindProbeRespond closes the pruning exchange; the flag is the joint
	// decision to remove the edge.
	kindProbeRespond
	// kindStatus broadcasts whether the sender is covered by the matching
	// M (phases II and III of Theorem 5).
	kindStatus
	// kindProposal is a matching proposal in the proposal-based
	// subroutines (phase II bipartite matching and phase III
	// double-cover 2-matching of Theorem 5).
	kindProposal
	// kindAnswer replies to a proposal; the flag accepts it.
	kindAnswer
	// kindID carries the sender's identifier (IDMatching).
	kindID
	// kindIDStatus reports the sender's matched flag (IDMatching).
	kindIDStatus
	// kindPoint is IDMatching's pointing proposal.
	kindPoint
)

const (
	kindBits    = 4
	payloadBits = 64 - kindBits
	// labelBits is the width of each of a label's two fields. A degree
	// of 2^30 needs over a billion ports, 64 times the
	// graph.DefaultLimits.MaxPorts that decoding enforces.
	labelBits = payloadBits / 2
)

// kindNames names each kind for traces; unused tags name themselves.
var kindNames = [1 << kindBits]string{
	"empty", "mark", "label", "propose", "respond", "probe", "probe-respond",
	"status", "proposal", "answer", "id", "id-status", "point",
	"kind13", "kind14", "kind15",
}

// MessageKind names the kind of a message sent by this package's
// algorithms, for sim.NewTrace.
func MessageKind(m sim.Message) string { return kindNames[kindOf(m)] }

// Payload-free messages.
const (
	msgMark     = sim.Message(kindMark)
	msgProposal = sim.Message(kindProposal)
	msgPoint    = sim.Message(kindPoint)
)

// pack builds a message of kind k. A payload that does not fit panics:
// a truncated message would silently change the protocol.
func pack(k msgKind, payload uint64) sim.Message {
	if payload>>payloadBits != 0 {
		panic(fmt.Sprintf("core: %s payload %d exceeds %d bits", kindNames[k], payload, payloadBits))
	}
	return sim.Message(payload<<kindBits | uint64(k))
}

func kindOf(m sim.Message) msgKind { return msgKind(m & (1<<kindBits - 1)) }

func payloadOf(m sim.Message) uint64 { return uint64(m) >> kindBits }

// flagMsg is the message of kind k carrying one boolean.
func flagMsg(k msgKind, b bool) sim.Message {
	if b {
		return sim.Message(1<<kindBits | uint64(k))
	}
	return sim.Message(k)
}

// labelMsg packs a port number and a degree, each in labelBits bits.
func labelMsg(port, deg int) sim.Message {
	if port>>labelBits != 0 || deg>>labelBits != 0 {
		panic(fmt.Sprintf("core: label (port %d, degree %d) exceeds %d bits per field", port, deg, labelBits))
	}
	return pack(kindLabel, uint64(port)<<labelBits|uint64(deg))
}

// mustPayload returns the payload of m, which must be of kind k. The
// label and ID exchanges use it: every neighbour sends in them, so any
// other message, an empty one included, is a protocol bug that must not
// read as a zero payload.
func mustPayload(m sim.Message, k msgKind) uint64 {
	if kindOf(m) != k {
		panic(fmt.Sprintf("core: expected a %s message, got %s", kindNames[k], MessageKind(m)))
	}
	return payloadOf(m)
}

// labelOf unpacks a label message.
func labelOf(m sim.Message) (port, deg int) {
	p := mustPayload(m, kindLabel)
	return int(p >> labelBits), int(p & (1<<labelBits - 1))
}
