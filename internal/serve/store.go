package serve

import (
	"fmt"

	"mgs/internal/harness"
	"mgs/internal/sim"
	"mgs/internal/vm"
)

// The store is a sharded key-value/session table in shared simulated
// memory. Keys map to shards by a deterministic block function (shard =
// key / keysPerShard), each shard's records occupy their own run of
// whole pages homed on the shard's SSMP, and every operation holds the
// shard's MGS distributed lock — so a request served by a front end in
// the owning SSMP pays hardware-shared-memory prices, while a request
// from any other SSMP drags the lock token and the touched pages across
// the software coherence layer. Tail latency is made of exactly those
// crossings, plus queueing at the front end.
//
// Record layout (RecWords 8-byte words per key):
//
//	word 0  version — number of puts applied (every put increments)
//	word 1  sum     — running sum of put payloads (mod 2^64)
//	word 2  xor     — running xor of put payloads
//	word 3  tag     — key id ^ tagSalt, written at setup, never after
//
// Puts are commutative on purpose: version, sum, and xor do not depend
// on the order in which racing front ends win the shard lock, so the
// final memory image is byte-identical across engine worker counts and
// under chaos fault plans — the same trick PR 3 used for Water's shared
// reductions.

// RecWords is the record size in 8-byte words.
const RecWords = 4

const (
	recVersion = 0
	recSum     = 1
	recXor     = 2
	recTag     = 3
)

// tagSalt marks record tags so a misrouted read is distinguishable from
// an untouched zero page.
const tagSalt = 0x5e55_10_4a11_0c8d

// Costs are the front-end service costs in cycles, charged as User
// time on top of the shared-memory traffic the operations generate.
type Costs struct {
	// Parse is charged once per request (decode, dispatch, encode).
	Parse sim.Time
	// PerRecord is charged per record touched (get: 1, scan: run
	// length, put: 1).
	PerRecord sim.Time
}

// DefaultCosts returns the calibrated front-end costs.
func DefaultCosts() Costs { return Costs{Parse: 150, PerRecord: 40} }

// Store is the placed table: all fields are fixed at Place time and
// read-only afterwards, so any front end may serve any key.
type Store struct {
	// nKeys and recWords describe the table; keysPerShard and
	// pagesPerShard the block mapping; base the first record's address.
	// All set by Place, never written after construction.
	nKeys         int
	shards        int
	keysPerShard  int
	pagesPerShard int
	pageSize      int
	base          vm.Addr
	costs         Costs
}

// Place allocates and homes the table on m: shard s's pages live on the
// first processor of SSMP s, and every record's tag word is initialized
// backdoor (setup carries no simulated cost). nKeys must be a positive
// power of two so the workload's hot-key permutation applies.
func Place(m *harness.Machine, nKeys int, costs Costs) *Store {
	if nKeys <= 0 || nKeys&(nKeys-1) != 0 {
		panic("serve: nKeys must be a positive power of two")
	}
	shards := m.Cfg.P / m.Cfg.C
	if shards > nKeys {
		panic("serve: more shards than keys")
	}
	keysPerShard := nKeys / shards
	recBytes := RecWords * 8
	pageSize := m.Cfg.PageSize
	recsPerPage := pageSize / recBytes
	if recsPerPage == 0 {
		panic("serve: page smaller than one record")
	}
	pagesPerShard := (keysPerShard + recsPerPage - 1) / recsPerPage
	s := &Store{
		nKeys: nKeys, shards: shards, keysPerShard: keysPerShard,
		pagesPerShard: pagesPerShard, pageSize: pageSize, costs: costs,
	}
	c := m.Cfg.C
	s.base = m.AllocHomed(shards*pagesPerShard*pageSize, func(page int) int {
		return (page / pagesPerShard) * c
	})
	for sh := 0; sh < shards; sh++ {
		first := sh * keysPerShard
		m.FillWords(s.wordAddr(int32(first), 0), keysPerShard*RecWords, func(i int) uint64 {
			if i%RecWords != recTag {
				return 0
			}
			return uint64(first+i/RecWords) ^ tagSalt
		})
	}
	return s
}

// ShardOf is the deterministic sharding function: contiguous key blocks.
func (s *Store) ShardOf(key int32) int { return int(key) / s.keysPerShard }

// LockID returns the msync lock guarding shard sh. Serve locks start at
// 0; apps that compose with the store must number their own locks from
// the shard count (one per SSMP) up.
func (s *Store) LockID(sh int) int { return sh }

// wordAddr returns the address of the given word of key's record.
func (s *Store) wordAddr(key int32, word int) vm.Addr {
	sh := s.ShardOf(key)
	inShard := int(key) - sh*s.keysPerShard
	return s.base + vm.Addr(sh*s.pagesPerShard*s.pageSize+inShard*RecWords*8+word*8)
}

// Get reads key's record under its shard lock and returns the folded
// words (a response-body stand-in).
func (s *Store) Get(c *harness.Ctx, key int32) uint64 {
	c.Compute(s.costs.Parse + s.costs.PerRecord)
	sh := s.ShardOf(key)
	c.Acquire(s.LockID(sh))
	v := uint64(c.LoadI64(s.wordAddr(key, recVersion)))
	v += uint64(c.LoadI64(s.wordAddr(key, recSum)))
	v ^= uint64(c.LoadI64(s.wordAddr(key, recXor)))
	v ^= uint64(c.LoadI64(s.wordAddr(key, recTag)))
	c.Release(s.LockID(sh))
	return v
}

// Put applies a commutative update to key's record under its shard
// lock.
func (s *Store) Put(c *harness.Ctx, key int32, val uint64) {
	c.Compute(s.costs.Parse + s.costs.PerRecord)
	sh := s.ShardOf(key)
	c.Acquire(s.LockID(sh))
	s.putLocked(c, key, val)
	c.Release(s.LockID(sh))
}

// putLocked is the in-critical-section body of Put.
func (s *Store) putLocked(c *harness.Ctx, key int32, val uint64) {
	c.StoreI64(s.wordAddr(key, recVersion), c.LoadI64(s.wordAddr(key, recVersion))+1)
	c.StoreI64(s.wordAddr(key, recSum), int64(uint64(c.LoadI64(s.wordAddr(key, recSum)))+val))
	c.StoreI64(s.wordAddr(key, recXor), int64(uint64(c.LoadI64(s.wordAddr(key, recXor)))^val))
}

// Scan reads up to n consecutive records starting at key, clamped to
// the end of key's shard, under the shard lock, and returns the folded
// words.
func (s *Store) Scan(c *harness.Ctx, key int32, n int) uint64 {
	sh := s.ShardOf(key)
	end := int32((sh + 1) * s.keysPerShard)
	if int32(n) < end-key {
		end = key + int32(n)
	}
	c.Compute(s.costs.Parse + s.costs.PerRecord*sim.Time(end-key))
	var v uint64
	c.Acquire(s.LockID(sh))
	for k := key; k < end; k++ {
		v += uint64(c.LoadI64(s.wordAddr(k, recVersion)))
		v += uint64(c.LoadI64(s.wordAddr(k, recSum)))
		v ^= uint64(c.LoadI64(s.wordAddr(k, recXor)))
	}
	c.Release(s.LockID(sh))
	return v
}

// VerifyAgainst compares the store's final records (read backdoor, no
// simulated cost) against the trace's commutative expectation and
// returns the first mismatch.
func (s *Store) VerifyAgainst(m *harness.Machine, e Expect) error {
	check := func(k int, word string, got, want int64) error {
		return fmt.Errorf("serve: key %d %s = %d, want %d", k, word, got, want)
	}
	for sh := 0; sh < s.shards; sh++ {
		first := sh * s.keysPerShard
		if err := m.VisitWords(s.wordAddr(int32(first), 0), s.keysPerShard*RecWords, func(i int, w uint64) error {
			k, got := first+i/RecWords, int64(w)
			switch i % RecWords {
			case recVersion:
				if want := e.Count[k]; got != want {
					return check(k, "version", got, want)
				}
			case recSum:
				if want := int64(e.Sum[k]); got != want {
					return check(k, "sum", got, want)
				}
			case recXor:
				if want := int64(e.Xor[k]); got != want {
					return check(k, "xor", got, want)
				}
			case recTag:
				if want := int64(uint64(k) ^ tagSalt); got != want {
					return check(k, "tag", got, want)
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
