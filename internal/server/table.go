package server

import (
	"container/list"
	"net/http"
	"sync"
)

// resultTable holds edsd's answers, keyed like the cache (see cacheKey
// in server.go). The paper's algorithms are deterministic functions of
// the port-numbered graph, so a key has exactly one answer, and the
// table keeps it in one of two states:
//
//   - pending: a leader is running the engine for the key. Identical
//     requests that arrive meanwhile join as followers and wait on done
//     instead of occupying worker slots of their own.
//   - finished: a published 200 body, served byte-for-byte to every
//     later request for the key without touching the admission queue or
//     an engine.
//
// Only finished entries are retained, in LRU order, up to cap keys;
// pending entries are never evicted. With cap <= 0 nothing is retained
// but identical in-flight requests still coalesce.
//
// The leader resolves its entry in one step (publish), so a request
// that missed the probe a moment before the leader finished finds the
// finished entry when it joins and is served as a hit, never as a second
// run.
type resultTable struct {
	mu  sync.Mutex
	cap int
	m   map[string]*entry
	lru list.List // finished entries, front = most recently used
}

// entry is one key's answer. A pending entry has done open and el nil;
// publish sets res and then closes done, so followers read res only
// after done is closed. A finished entry has el set and res.body holds
// the retained body, which is never modified.
type entry struct {
	key  string
	done chan struct{}
	res  outcome
	// size counts the requests a pending entry's run serves, leader
	// included (guarded by resultTable.mu): the run's batch yield.
	size int64
	el   *list.Element
}

// outcome is a leader's published result. code 0 marks a private
// outcome — the leader's deadline expired, its client went away, or it
// was not admitted — which says nothing about what another request would
// see, so followers retry; StatusOK carries body; any other code is a
// deterministic failure (round limit, invalid output) shared verbatim
// with msg.
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

// get returns the finished body for key, promoting it to most recently
// used. A pending key is a miss. The caller must not modify the body.
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
// caller as its leader.
func (t *resultTable) join(key string) (*entry, role) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.m[key]; ok {
		if e.el != nil {
			t.lru.MoveToFront(e.el)
			return e, finished
		}
		e.size++
		return e, follower
	}
	e := &entry{key: key, done: make(chan struct{}), size: 1}
	t.m[key] = e
	return e, leader
}

// publish resolves the leader's pending entry e with res, under one
// lock: it wakes the followers, retains a 200 under e's key and alias
// (the raw-body key), and drops every other outcome, so the next join
// for the key leads afresh. It returns the number of requests the run
// served, which no later join can change.
func (t *resultTable) publish(e *entry, res outcome, alias string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.res = res
	close(e.done)
	delete(t.m, e.key)
	if res.code == http.StatusOK {
		t.retainLocked(res.body, e.key, alias)
	}
	return e.size
}

// retain stores body as the finished answer for keys, the way a peer
// fill or a canonical hit's raw-key backfill learns a result without
// running it. A key that is already finished is only promoted; a pending
// key is left to its leader.
func (t *resultTable) retain(body []byte, keys ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retainLocked(body, keys...)
}

func (t *resultTable) retainLocked(body []byte, keys ...string) {
	if t.cap <= 0 {
		return
	}
	for _, key := range keys {
		if e, ok := t.m[key]; ok {
			if e.el != nil {
				t.lru.MoveToFront(e.el)
			}
			continue
		}
		e := &entry{key: key, res: outcome{code: http.StatusOK, body: body}}
		e.el = t.lru.PushFront(e)
		t.m[key] = e
	}
	for t.lru.Len() > t.cap {
		last := t.lru.Remove(t.lru.Back()).(*entry)
		delete(t.m, last.key)
	}
}

// len returns the number of finished entries retained.
func (t *resultTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}
