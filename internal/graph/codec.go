package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// WriteTo serialises the graph in a line-oriented text format:
//
//	# comments and blank lines are ignored
//	nodes <N>
//	conn <v> <i> <u> <j>    # p(v,i) = (u,j); one line per orbit
//
// The format round-trips through ReadGraph and is the interchange format
// of the edsrun tool's -graph file:PATH option and the edsd server's
// request body. The output is canonical: a fixed line order with no
// comments or extra whitespace, so byte equality of two WriteTo outputs
// is graph equality.
func WriteTo(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "nodes %d\n", g.N())
	// One line per orbit, from its canonical end, in canonical order.
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "conn %d %d %d %d\n", e.A.Node, e.A.Num, e.B.Node, e.B.Num)
	}
	return bw.Flush()
}

// Limits bounds the size of graphs accepted by ReadGraphLimits. The
// codec parses untrusted network bytes (the edsd server feeds request
// bodies straight into it), so both dimensions that drive allocation are
// capped: the node count, and the total number of ports (a single
// "conn 0 999999999 ..." line would otherwise allocate gigabytes,
// because a graph holds every port up to each node's highest named one).
// Non-positive fields fall back to the DefaultLimits value.
type Limits struct {
	MaxNodes int
	MaxPorts int
}

// DefaultLimits is the cap applied by ReadGraph: large enough for every
// experiment in the repo (million-node graphs), small enough that a
// hostile input cannot OOM the process.
var DefaultLimits = Limits{MaxNodes: 1 << 22, MaxPorts: 1 << 24}

// ErrTooLarge is wrapped by decode errors caused by an input exceeding
// the size limits, letting servers distinguish "too big" (413) from
// "malformed" (400).
var ErrTooLarge = errors.New("graph: input exceeds decode limits")

// ReadGraph parses the WriteTo format under DefaultLimits.
func ReadGraph(r io.Reader) (*Graph, error) {
	return ReadGraphLimits(r, DefaultLimits)
}

// ReadGraphLimits parses the WriteTo format, rejecting inputs that
// declare more than lim.MaxNodes nodes or wire more than lim.MaxPorts
// ports (errors wrapping ErrTooLarge). Parsing is strict: every numeric
// field must be a whole base-10 integer, and any line longer than the
// scanner budget (64 KiB) is an error. Allocation is proportional to the
// declared size, never to attacker-controlled port numbers beyond the
// cap, and never per line. Errors are those of wiring each line as it is
// read: a port wired twice fails its line, ahead of errors on later lines.
func ReadGraphLimits(r io.Reader, lim Limits) (*Graph, error) {
	if lim.MaxNodes <= 0 {
		lim.MaxNodes = DefaultLimits.MaxNodes
	}
	if lim.MaxPorts <= 0 {
		lim.MaxPorts = DefaultLimits.MaxPorts
	}
	// The flat representation indexes nodes and ports with int32.
	lim.MaxNodes = min(lim.MaxNodes, math.MaxInt32)
	lim.MaxPorts = min(lim.MaxPorts, math.MaxInt32)
	d := decoder{lim: lim}
	if sized, ok := r.(interface{ Len() int }); ok {
		// No conn line is shorter than "conn 0 1 0 1\n", so an input of
		// known length never regrows the log.
		d.log = make([]int32, 0, 5*(sized.Len()/len("conn 0 1 0 1\n")+1))
	}
	br := bufio.NewReaderSize(r, bufio.MaxScanTokenSize)
	for line := 1; ; line++ {
		raw, err := br.ReadSlice('\n')
		text := bytes.TrimSuffix(raw, []byte{'\n'})
		if len(text) >= bufio.MaxScanTokenSize {
			return nil, d.fail(bufio.ErrTooLong)
		}
		if len(raw) > 0 {
			if err := d.line(line, bytes.TrimSuffix(text, []byte{'\r'})); err != nil {
				return nil, d.fail(err)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, d.fail(err)
		}
	}
	if d.deg == nil {
		return nil, fmt.Errorf("graph: missing nodes directive")
	}
	return newGraph(d.deg, d.log)
}

// decoder is ReadGraphLimits' state between lines.
type decoder struct {
	lim   Limits
	deg   []int32 // per node, the highest port number wired so far; nil before "nodes"
	total int     // sum of deg
	log   []int32 // v, i, u, j, line per conn line
}

// line decodes one input line, given without its line terminator.
func (d *decoder) line(line int, b []byte) error {
	var f [6][]byte // five fields and whether there are more
	nf := fields(b, &f)
	if nf == 0 || f[0][0] == '#' {
		return nil
	}
	text := func() string { return strings.TrimSpace(string(b)) }
	switch string(f[0]) {
	case "nodes":
		if d.deg != nil {
			return fmt.Errorf("graph: line %d: duplicate nodes directive", line)
		}
		n, err := strconv.Atoi(string(f[1]))
		if nf != 2 || err != nil {
			return fmt.Errorf("graph: line %d: bad nodes directive %q", line, text())
		}
		if n < 0 {
			return fmt.Errorf("graph: line %d: negative node count", line)
		}
		if n > d.lim.MaxNodes {
			return fmt.Errorf("%w: line %d: %d nodes > limit %d", ErrTooLarge, line, n, d.lim.MaxNodes)
		}
		d.deg = make([]int32, n)
		return nil
	case "conn":
		if d.deg == nil {
			return fmt.Errorf("graph: line %d: conn before nodes", line)
		}
		if nf != 5 {
			return fmt.Errorf("graph: line %d: bad conn directive %q", line, text())
		}
		var x [4]int
		for k := range x {
			var err error
			if x[k], err = strconv.Atoi(string(f[k+1])); err != nil {
				return fmt.Errorf("graph: line %d: bad conn directive %q: %v", line, text(), err)
			}
		}
		return d.conn(line, x[0], x[1], x[2], x[3])
	}
	return fmt.Errorf("graph: line %d: unknown directive %q", line, f[0])
}

// conn makes Builder.Connect's checks in its order, charges the port
// budget, and logs the connection. A port wired twice is left to wire,
// which fail and newGraph run.
func (d *decoder) conn(line, v, i, u, j int) error {
	n := len(d.deg)
	if err := checkPort(n, v, i); err != nil {
		return fmt.Errorf("graph: line %d: %v", line, err)
	}
	if err := checkPort(n, u, j); err != nil {
		// Connect rejects a taken (v, i) before looking at (u, j): log
		// (v, i) alone, as a directed loop, so that fail reports it.
		if i <= int(d.deg[v]) {
			d.log = append(d.log, int32(v), int32(i), int32(v), int32(i), int32(line))
		}
		return fmt.Errorf("graph: line %d: %v", line, err)
	}
	// Ports up to each node's highest named port will all be allocated,
	// so the budget is charged for the growth this line causes.
	high := int(d.deg[u])
	if u == v {
		high = max(high, i)
	}
	grow := max(i-int(d.deg[v]), 0) + max(j-high, 0)
	if d.total+grow > d.lim.MaxPorts {
		return fmt.Errorf("%w: line %d: more than %d ports", ErrTooLarge, line, d.lim.MaxPorts)
	}
	d.total += grow
	d.deg[v] = max(d.deg[v], int32(i))
	d.deg[u] = max(d.deg[u], int32(j))
	d.log = append(d.log, int32(v), int32(i), int32(u), int32(j), int32(line))
	return nil
}

// fail returns err, the error a line or the reader caused, unless an
// earlier line wired a port twice: that line failed first.
func (d *decoder) fail(err error) error {
	if d.deg == nil {
		return err
	}
	if _, werr := wire(portSpace(d.deg), d.log); werr != nil {
		return werr
	}
	return err
}

// fields splits b into its first len(f) fields, with the whitespace
// rules of strings.Fields, and returns how many it found.
func fields(b []byte, f *[6][]byte) int {
	nf, start := 0, -1
	for k := 0; k <= len(b) && nf < len(f); {
		space, size := true, 1 // the end of b ends a field
		if k < len(b) {
			if c := b[k]; c < utf8.RuneSelf {
				space = c == ' ' || '\t' <= c && c <= '\r'
			} else {
				var r rune
				r, size = utf8.DecodeRune(b[k:])
				space = unicode.IsSpace(r)
			}
		}
		switch {
		case !space && start < 0:
			start = k
		case space && start >= 0:
			f[nf], nf, start = b[start:k], nf+1, -1
		}
		k += size
	}
	return nf
}
