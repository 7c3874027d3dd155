package core

import (
	"errors"
	"sort"
	"strconv"
	"sync"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// CacheStats tallies the CachingOracle's effectiveness per HIT type.
type CacheStats struct {
	// Hits are queries answered from the cache (zero crowd cost).
	Hits TaskCounts
	// Misses are queries forwarded to the inner oracle.
	Misses TaskCounts
}

// HitRate returns the fraction of queries served from the cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits.Total() + s.Misses.Total()
	if total == 0 {
		return 0
	}
	return float64(s.Hits.Total()) / float64(total)
}

// CachingOracle deduplicates identical queries against the inner
// oracle: a HIT already paid for is never posted again. Set and
// reverse-set queries are keyed on the canonicalized id-set (sorted,
// order-insensitive) plus the group's member patterns, point queries
// on the object id. Errors are never cached — a transient crowd
// failure leaves the key unanswered, so the next attempt pays (and
// retries) the real HIT.
//
// Concurrent identical queries are collapsed in flight: the first
// caller posts the HIT while the others wait for its answer, so a
// parallel audit round never double-pays for duplicates either. Safe
// for concurrent use when the inner oracle is.
//
// Caching deliberately changes task counts — that is the point — so
// equivalence experiments comparing engine variants must run uncached.
type CachingOracle struct {
	inner Oracle
	poolWidth

	mu       sync.Mutex
	answers  map[string]bool
	labels   map[dataset.ObjectID][]int
	inflight map[string]*inflightCall
	stats    CacheStats

	// Key-building scratch, guarded by mu. Lookups go through
	// map[string(bytes)] expressions, which Go compiles without
	// materializing the string, so a cache hit allocates nothing; the
	// string is built only when a key must be stored. keyBuf and
	// offScratch are stolen (swapped to nil) by SetQueryBatch, whose
	// keys must survive an unlock — a concurrent caller appending to a
	// shared buffer would scribble over them.
	keyBuf        []byte
	offScratch    []int
	sortScratch   []int
	memberScratch []string
}

// inflightCall is a pending inner query other callers wait on.
type inflightCall struct {
	done   chan struct{}
	answer bool
	labels []int
	err    error
}

// NewCachingOracle wraps an oracle with the deduplicating cache.
func NewCachingOracle(inner Oracle) *CachingOracle {
	return &CachingOracle{
		inner:    inner,
		answers:  make(map[string]bool),
		labels:   make(map[dataset.ObjectID][]int),
		inflight: make(map[string]*inflightCall),
	}
}

// WithBatchParallelism widens the worker pool used to forward a
// round's distinct misses when the inner oracle has no native
// batching (it never narrows). AsBatchOracle propagates the caller's
// width here automatically, so a cached oracle inside a batched audit
// keeps the audit's parallelism instead of serializing every round.
func (c *CachingOracle) WithBatchParallelism(parallelism int) *CachingOracle {
	c.widen(parallelism)
	return c
}

// Stats returns the hit/miss tally so far.
func (c *CachingOracle) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of distinct cached answers.
func (c *CachingOracle) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.answers) + len(c.labels)
}

// setKey canonicalizes one set/reverse-set query: the id multiset is
// sorted (the crowd question is order-insensitive) and the group is
// identified by its sorted member pattern keys, so renamed or
// reordered super-groups with the same members share a key.
//
// The encoding is collision-proof by construction: every
// variable-length field is length-prefixed, so no member key — however
// adversarial its contents, separators included — can bleed into a
// neighboring field and make two distinct (ids, group, kind) tuples
// share a key (FuzzCacheKey pins the property). A plain
// separator-joined key would conflate e.g. a two-member group with a
// one-member group whose key happens to contain the separator — and a
// conflated key means one paid HIT silently answers a DIFFERENT crowd
// question.
//
// setKey is the reference (allocating) form; hot paths build the same
// bytes into reused scratch via canonSet + appendSetKey.
func setKey(ids []dataset.ObjectID, g pattern.Group, reverse bool) string {
	sorted := make([]int, len(ids))
	for i, id := range ids {
		sorted[i] = int(id)
	}
	sort.Ints(sorted)
	members := make([]string, len(g.Members))
	for i, p := range g.Members {
		members[i] = p.Key()
	}
	sort.Strings(members)
	return string(appendSetKey(nil, sorted, members, reverse))
}

// appendSetKey appends setKey's encoding of one canonicalized query
// (sorted ids, sorted member keys) to dst and returns the extended
// slice. The bytes are identical to setKey's, so scratch-built keys
// and stored map keys always agree.
func appendSetKey(dst []byte, sorted []int, members []string, reverse bool) []byte {
	if reverse {
		dst = append(dst, 'r', '|')
	} else {
		dst = append(dst, 's', '|')
	}
	dst = strconv.AppendInt(dst, int64(len(members)), 10)
	for _, m := range members {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(len(m)), 10)
		dst = append(dst, ':')
		dst = append(dst, m...)
	}
	dst = append(dst, '|')
	for i, id := range sorted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return dst
}

// canonSet canonicalizes one set query into the oracle's sorting
// scratch: ids sorted ascending, member pattern keys sorted
// lexically. Callers must hold c.mu; the returned slices are valid
// until the next canonSet call.
func (c *CachingOracle) canonSet(ids []dataset.ObjectID, g pattern.Group) ([]int, []string) {
	if cap(c.sortScratch) < len(ids) {
		c.sortScratch = make([]int, len(ids))
	}
	sorted := c.sortScratch[:len(ids)]
	for i, id := range ids {
		sorted[i] = int(id)
	}
	sort.Ints(sorted)
	if cap(c.memberScratch) < len(g.Members) {
		c.memberScratch = make([]string, len(g.Members))
	}
	members := c.memberScratch[:len(g.Members)]
	for i, p := range g.Members {
		members[i] = p.Key()
	}
	sort.Strings(members)
	return sorted, members
}

func (c *CachingOracle) countSet(t *TaskCounts, reverse bool) {
	if reverse {
		t.ReverseSet++
	} else {
		t.Set++
	}
}

// settleSet publishes the inner oracle's outcome for an in-flight key:
// successful answers enter the cache, errors only release the waiters.
func (c *CachingOracle) settleSet(key string, ans bool, err error) {
	c.mu.Lock()
	call := c.inflight[key]
	delete(c.inflight, key)
	if err == nil {
		c.answers[key] = ans
	}
	c.mu.Unlock()
	if call != nil {
		call.answer, call.err = ans, err
		close(call.done)
	}
}

func (c *CachingOracle) setQuery(ids []dataset.ObjectID, g pattern.Group, reverse bool) (bool, error) {
	c.mu.Lock()
	sorted, members := c.canonSet(ids, g)
	c.keyBuf = appendSetKey(c.keyBuf[:0], sorted, members, reverse)
	if ans, ok := c.answers[string(c.keyBuf)]; ok {
		c.countSet(&c.stats.Hits, reverse)
		c.mu.Unlock()
		return ans, nil
	}
	if call, ok := c.inflight[string(c.keyBuf)]; ok {
		c.countSet(&c.stats.Hits, reverse)
		c.mu.Unlock()
		<-call.done
		return call.answer, call.err
	}
	c.countSet(&c.stats.Misses, reverse)
	key := string(c.keyBuf) // materialized only when the HIT is posted
	c.inflight[key] = &inflightCall{done: make(chan struct{})}
	c.mu.Unlock()

	var ans bool
	var err error
	if reverse {
		ans, err = c.inner.ReverseSetQuery(ids, g)
	} else {
		ans, err = c.inner.SetQuery(ids, g)
	}
	c.settleSet(key, ans, err)
	return ans, err
}

// SetQuery implements Oracle.
func (c *CachingOracle) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return c.setQuery(ids, g, false)
}

// ReverseSetQuery implements Oracle.
func (c *CachingOracle) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return c.setQuery(ids, g, true)
}

// pointKey is the in-flight key of one point query.
func pointKey(id dataset.ObjectID) string { return string(appendPointKey(nil, id)) }

// appendPointKey appends pointKey's bytes to dst.
func appendPointKey(dst []byte, id dataset.ObjectID) []byte {
	dst = append(dst, 'p', '|')
	return strconv.AppendInt(dst, int64(id), 10)
}

// settlePoint publishes the inner oracle's outcome for an in-flight
// point query; successful labels enter the cache, errors only release
// the waiters.
func (c *CachingOracle) settlePoint(id dataset.ObjectID, labels []int, err error) {
	c.mu.Lock()
	key := pointKey(id)
	call := c.inflight[key]
	delete(c.inflight, key)
	if err == nil {
		c.labels[id] = cloneLabels(labels)
	}
	c.mu.Unlock()
	if call != nil {
		call.labels, call.err = labels, err
		close(call.done)
	}
}

// PointQuery implements Oracle.
func (c *CachingOracle) PointQuery(id dataset.ObjectID) ([]int, error) {
	c.mu.Lock()
	if labels, ok := c.labels[id]; ok {
		c.stats.Hits.Point++
		c.mu.Unlock()
		return cloneLabels(labels), nil
	}
	c.keyBuf = appendPointKey(c.keyBuf[:0], id)
	if call, ok := c.inflight[string(c.keyBuf)]; ok {
		c.stats.Hits.Point++
		c.mu.Unlock()
		<-call.done
		return cloneLabels(call.labels), call.err
	}
	c.stats.Misses.Point++
	c.inflight[string(c.keyBuf)] = &inflightCall{done: make(chan struct{})}
	c.mu.Unlock()

	labels, err := c.inner.PointQuery(id)
	c.settlePoint(id, labels, err)
	return labels, err
}

// cloneLabels copies a label vector; nil stays nil.
func cloneLabels(labels []int) []int {
	if labels == nil {
		return nil
	}
	out := make([]int, len(labels))
	copy(out, labels)
	return out
}

// SetQueryBatch implements BatchOracle: duplicates inside the round
// collapse onto one inner request, cached keys are answered for free,
// keys another caller is already posting are waited on instead of
// re-posted, and only the distinct misses this round owns reach the
// inner oracle — natively batched when it implements BatchOracle
// itself, otherwise across the propagated worker-pool width.
func (c *CachingOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	answers := make([]bool, len(reqs))
	var missReqs []SetRequest
	var missKeys []string
	var owned map[string]bool
	var waits map[string]*inflightCall
	var waitCalls []*inflightCall

	c.mu.Lock()
	// Steal the key scratch for this round: the keys (arena bytes plus
	// [start,end) offset pairs) must survive the unlock below for final
	// assembly, and a concurrent caller appending to the shared buffer
	// would scribble over them. Given back under the assembly lock.
	arena, offs := c.keyBuf[:0], c.offScratch[:0]
	c.keyBuf, c.offScratch = nil, nil
	for i, req := range reqs {
		sorted, members := c.canonSet(req.IDs, req.Group)
		start := len(arena)
		arena = appendSetKey(arena, sorted, members, req.Reverse)
		offs = append(offs, start, len(arena))
		key := arena[start:]
		if ans, ok := c.answers[string(key)]; ok {
			c.countSet(&c.stats.Hits, req.Reverse)
			answers[i] = ans
			continue
		}
		if owned[string(key)] || waits[string(key)] != nil {
			c.countSet(&c.stats.Hits, req.Reverse)
			continue
		}
		if call, ok := c.inflight[string(key)]; ok {
			// Another caller is posting this HIT right now.
			c.countSet(&c.stats.Hits, req.Reverse)
			if waits == nil {
				waits = make(map[string]*inflightCall)
			}
			waits[string(key)] = call
			waitCalls = append(waitCalls, call)
			continue
		}
		c.countSet(&c.stats.Misses, req.Reverse)
		k := string(key)
		c.inflight[k] = &inflightCall{done: make(chan struct{})}
		if owned == nil {
			owned = make(map[string]bool)
		}
		owned[k] = true
		missReqs = append(missReqs, req)
		missKeys = append(missKeys, k)
	}
	c.mu.Unlock()

	var missAnswers []bool
	var missErr error
	if len(missReqs) > 0 {
		missAnswers, missErr = AsBatchOracle(c.inner, c.width()).SetQueryBatch(missReqs)
	}
	// A failing inner batch may still have committed a prefix (a budget
	// governor admits what the remaining budget affords — those HITs
	// were posted and paid): cache the committed answers, release the
	// refused keys with the error.
	for j, key := range missKeys {
		if j < len(missAnswers) {
			c.settleSet(key, missAnswers[j], nil)
		} else {
			c.settleSet(key, false, missErr)
		}
	}
	// Wait in round-scan order (waitCalls, not the waits map): when
	// several in-flight calls fail with different errors, the error
	// this round surfaces must be the same on every run — map order
	// would hand the retry classifier a different error each time.
	for _, call := range waitCalls {
		<-call.done
		if call.err != nil && missErr == nil {
			missErr = call.err
		}
	}
	// Assemble positionally; on error, honor the BatchOracle
	// partial-prefix contract by returning the longest answered prefix
	// (cache hits plus committed misses) alongside the error, so a
	// lockstep round delivers every paid answer instead of discarding
	// them.
	c.mu.Lock()
	defer c.mu.Unlock()
	// Give the stolen scratch back; reading arena below stays safe
	// because no other caller can touch keyBuf until we unlock.
	c.keyBuf, c.offScratch = arena, offs
	for i := range reqs {
		ans, ok := c.answers[string(arena[offs[2*i]:offs[2*i+1]])]
		if !ok {
			if missErr == nil {
				missErr = errors.New("core: cache round left a query unanswered")
			}
			return answers[:i], missErr
		}
		answers[i] = ans
	}
	// Every request was answered (a failure elsewhere never blocked
	// this round's keys): the full round committed.
	return answers, nil
}

// PointQueryBatch implements BatchOracle; see SetQueryBatch.
func (c *CachingOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	labels := make([][]int, len(ids))
	var missIDs []dataset.ObjectID
	var owned map[dataset.ObjectID]bool
	var waits map[dataset.ObjectID]*inflightCall
	var waitCalls []*inflightCall

	c.mu.Lock()
	for _, id := range ids {
		if _, ok := c.labels[id]; ok {
			c.stats.Hits.Point++
			continue
		}
		if owned[id] || waits[id] != nil {
			c.stats.Hits.Point++
			continue
		}
		c.keyBuf = appendPointKey(c.keyBuf[:0], id)
		if call, ok := c.inflight[string(c.keyBuf)]; ok {
			c.stats.Hits.Point++
			if waits == nil {
				waits = make(map[dataset.ObjectID]*inflightCall)
			}
			waits[id] = call
			waitCalls = append(waitCalls, call)
			continue
		}
		c.stats.Misses.Point++
		c.inflight[string(c.keyBuf)] = &inflightCall{done: make(chan struct{})}
		if owned == nil {
			owned = make(map[dataset.ObjectID]bool)
		}
		owned[id] = true
		missIDs = append(missIDs, id)
	}
	c.mu.Unlock()

	var missLabels [][]int
	var missErr error
	if len(missIDs) > 0 {
		missLabels, missErr = AsBatchOracle(c.inner, c.width()).PointQueryBatch(missIDs)
	}
	// Cache any committed prefix of a failing batch and release the
	// refused ids with the error; see SetQueryBatch.
	for j, id := range missIDs {
		if j < len(missLabels) {
			c.settlePoint(id, missLabels[j], nil)
		} else {
			c.settlePoint(id, nil, missErr)
		}
	}
	// Round-scan order, not map order: the surfaced error must be
	// deterministic; see SetQueryBatch.
	for _, call := range waitCalls {
		<-call.done
		if call.err != nil && missErr == nil {
			missErr = call.err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range ids {
		cached, ok := c.labels[id]
		if !ok {
			if missErr == nil {
				missErr = errors.New("core: cache round left a query unanswered")
			}
			return labels[:i], missErr
		}
		labels[i] = cloneLabels(cached)
	}
	return labels, nil
}
