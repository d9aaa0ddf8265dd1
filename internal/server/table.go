package server

import (
	"container/list"
	"net/http"
	"slices"
	"sync"
)

// resultTable holds edsd's answers, keyed like the cache (see cacheKey
// in server.go). The paper's algorithms are deterministic functions of
// the port-numbered graph, so a key has exactly one answer, and the
// table keeps it in one entry, in one of two states:
//
//   - pending: a leader is running the engine (or a fill) for the key.
//     Identical requests that arrive meanwhile join as followers and wait
//     on done instead of occupying worker slots of their own.
//   - finished: a published 200 body, served byte-for-byte to every
//     later request for the key without touching the admission queue or
//     an engine.
//
// A raw-body key is only another name for its canonical answer: join
// records it as an alias, a second key in the map for the same entry,
// which holds no body, takes no LRU slot, and is deleted with the entry.
// Only finished entries are retained, in LRU order, up to cap answers;
// pending entries are never evicted. With cap <= 0 nothing is retained
// and no alias is recorded, but identical in-flight requests still
// coalesce.
//
// The leader resolves its entry in one step (publish), so a request
// that joins a moment after the leader finished finds the finished entry
// and is served as a hit, never as a second run.
type resultTable struct {
	mu  sync.Mutex
	cap int
	m   map[string]*entry // canonical keys and their aliases
	lru list.List         // finished entries, front = most recently used
}

// maxAliases bounds the raw-body keys of one entry. The earliest stay
// (the leader's own wire form and the first repeat forms), so a storm of
// one-off bodies of one graph costs nothing beyond the array.
const maxAliases = 4

// entry is one key's answer. A pending entry has done open and el nil;
// publish sets res and then closes done, so followers read res only
// after done is closed. A finished entry has el set and res.body holds
// the retained body, which is never modified.
type entry struct {
	key  string
	done chan struct{}
	res  outcome
	// size counts the requests a pending entry's run serves, leader
	// included, and aliases the names that also map to the entry ("" is a
	// free slot); both are guarded by resultTable.mu.
	size    int64
	aliases [maxAliases]string
	el      *list.Element
}

// outcome is a leader's published result. code 0 marks a private
// outcome — the leader's deadline expired, its client went away, it
// was not admitted, or its owner's fill answered non-200 — which says
// nothing about what another request would see, so followers retry;
// StatusOK carries body; any other code is a deterministic failure
// (round limit, invalid output) shared verbatim with msg.
type outcome struct {
	code int
	body []byte
	msg  string
}

// role is what join made of the caller.
type role int

const (
	// follower: the key is pending; wait on the entry's done.
	follower role = iota
	// leader: the caller created the pending entry and owes exactly one
	// publish on every exit path.
	leader
	// finished: the entry holds a published body; serve it as a hit.
	finished
)

func newResultTable(capacity int) *resultTable {
	return &resultTable{cap: capacity, m: make(map[string]*entry)}
}

// get returns the finished body for key or alias, promoting it to most
// recently used. A pending key is a miss. The caller must not modify it.
func (t *resultTable) get(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[key]
	if !ok || e.el == nil {
		return nil, false
	}
	t.lru.MoveToFront(e.el)
	return e.res.body, true
}

// join looks key up: a finished entry is returned for serving, a pending
// one gains a follower, and a missing one is created pending with the
// caller as its leader. In every case alias (the request's raw-body key)
// becomes another name for the entry, unless the name is taken or the
// entry's alias slots are full.
func (t *resultTable) join(key, alias string) (*entry, role) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[key]
	if !ok {
		e = &entry{key: key, done: make(chan struct{})}
		t.m[key] = e
	}
	if _, taken := t.m[alias]; !taken && t.cap > 0 {
		if i := slices.Index(e.aliases[:], ""); i >= 0 {
			e.aliases[i] = alias
			t.m[alias] = e
		}
	}
	if e.el != nil {
		t.lru.MoveToFront(e.el)
		return e, finished
	}
	e.size++
	if !ok {
		return e, leader
	}
	return e, follower
}

// publish resolves the leader's pending entry e with res, under one
// lock: it wakes the followers, retains a 200 (evicting the least
// recently used answers), and drops any other outcome, so the next join
// for the key leads afresh. An entry goes with all its aliases. It
// returns the number of requests the run served, which no later join can
// change.
func (t *resultTable) publish(e *entry, res outcome) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.res = res
	close(e.done)
	if res.code != http.StatusOK || t.cap <= 0 {
		t.dropLocked(e)
		return e.size
	}
	e.el = t.lru.PushFront(e)
	for t.lru.Len() > t.cap {
		t.dropLocked(t.lru.Remove(t.lru.Back()).(*entry))
	}
	return e.size
}

// dropLocked deletes e's key and aliases from the map.
func (t *resultTable) dropLocked(e *entry) {
	delete(t.m, e.key)
	for _, a := range e.aliases {
		delete(t.m, a) // a free slot deletes nothing
	}
}

// len returns the number of answers retained; aliases do not count.
func (t *resultTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}
