package blockdev

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cached wraps a Device with an LRU-bounded, read-through, write-back block
// buffer cache — the bcdaemon of Biscuit's filesystem collapsed into a
// mutex-guarded wrapper. Reads are served from memory on a hit; writes only
// dirty the cached copy and reach the device when Sync flushes, or when a
// dirty block is evicted to make room. Sync flushes every dirty block (as
// one vectored write) and then syncs the underlying device, so the wrapper
// preserves the Device contract: after Sync returns, everything written is
// durable. That property is what lets the WAL run unmodified above a cache:
// the journal's commit-record Sync drains the cache too, and home-location
// writes only enter the cache during checkpoint, after the commit record is
// already durable — write-back can therefore never make a block durable
// ahead of its journal commit.
//
// A bypass range (SetBypass) exempts the journal region itself: journal
// blocks are written once and replayed rarely, and letting them churn the
// LRU would evict the hot metadata the cache exists to keep.
//
// The single mutex is held across miss fills, eviction writebacks and Sync
// flushes. That serializes concurrent misses, which is deliberate: it makes
// the stale-fill race (a miss fill completing after a newer write) and the
// flush/evict race impossible by construction, and the simulated devices
// sleep their latency outside their own locks, not ours.
type Cached struct {
	dev Device

	mu      sync.Mutex
	cap     int
	entries map[uint64]*centry
	// Intrusive LRU list: head is most recent, tail least.
	head, tail *centry
	// dirty lists every entry dirtied since the last flush, in the order
	// it was first dirtied, so Sync costs O(dirty) instead of a walk of
	// the whole LRU. An entry written back by eviction stays listed with
	// its dirty flag cleared; Sync skips it.
	dirty []*centry

	bypassStart, bypassLen uint64

	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	writebacks atomic.Uint64
}

// centry is one cached block.
type centry struct {
	n          uint64
	data       []byte
	dirty      bool
	prev, next *centry
}

// NewCached wraps dev with a buffer cache bounded to capacity blocks.
func NewCached(dev Device, capacity int) (*Cached, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("blockdev: cache capacity %d < 1", capacity)
	}
	return &Cached{
		dev:     dev,
		cap:     capacity,
		entries: make(map[uint64]*centry, capacity),
	}, nil
}

// SetBypass exempts blocks in [start, start+n) from caching; reads and
// writes in the range go straight to the device. Call before concurrent use.
func (c *Cached) SetBypass(start, n uint64) {
	c.mu.Lock()
	c.bypassStart, c.bypassLen = start, n
	c.mu.Unlock()
}

func (c *Cached) bypassed(n uint64) bool {
	return n >= c.bypassStart && n < c.bypassStart+c.bypassLen
}

// touch moves e to the head of the LRU list, inserting it if new.
func (c *Cached) touch(e *centry) {
	if c.head == e {
		return
	}
	// Unlink (no-op for a fresh entry).
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the list and map.
func (c *Cached) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(c.entries, e.n)
}

// evict shrinks the cache back under capacity, writing dirty victims back
// to the device. A failed writeback keeps the victim cached and dirty (the
// data is not lost; a later Sync retries) and surfaces the error to the
// operation that forced the eviction. Caller holds c.mu.
func (c *Cached) evict() error {
	for len(c.entries) > c.cap {
		v := c.tail
		if v == nil {
			return nil
		}
		if v.dirty {
			if err := c.dev.WriteBlock(v.n, v.data); err != nil {
				// Keep the dirty block; promote it so the next eviction
				// picks a different victim instead of spinning on this one.
				c.touch(v)
				return fmt.Errorf("blockdev: cache eviction writeback block %d: %w", v.n, err)
			}
			c.writebacks.Add(1)
			v.dirty = false // Sync skips it on the dirty list
		}
		c.unlink(v)
		c.evictions.Add(1)
	}
	return nil
}

// ReadBlock serves block n from the cache, filling it from the device on a
// miss. A failed device read inserts nothing (no poisoned entries).
func (c *Cached) ReadBlock(n uint64, buf []byte) error {
	if len(buf) != BlockSize {
		return fmt.Errorf("blockdev: cached read buffer is %d bytes, want %d", len(buf), BlockSize)
	}
	c.mu.Lock()
	if c.bypassed(n) {
		c.mu.Unlock()
		return c.dev.ReadBlock(n, buf)
	}
	if e, ok := c.entries[n]; ok {
		copy(buf, e.data)
		c.touch(e)
		c.mu.Unlock()
		c.hits.Add(1)
		return nil
	}
	c.misses.Add(1)
	data := make([]byte, BlockSize)
	if err := c.dev.ReadBlock(n, data); err != nil {
		c.mu.Unlock()
		return err
	}
	e := &centry{n: n, data: data}
	c.entries[n] = e
	c.touch(e)
	err := c.evict()
	c.mu.Unlock()
	copy(buf, data)
	return err
}

// WriteBlock buffers the block dirty in the cache; the device is written
// only at Sync or when the block is evicted.
func (c *Cached) WriteBlock(n uint64, data []byte) error {
	if len(data) != BlockSize {
		return fmt.Errorf("blockdev: cached write buffer is %d bytes, want %d", len(data), BlockSize)
	}
	c.mu.Lock()
	if c.bypassed(n) {
		c.mu.Unlock()
		return c.dev.WriteBlock(n, data)
	}
	err := c.upsertDirty(n, data)
	c.mu.Unlock()
	return err
}

// upsertDirty installs data as the dirty cached image of block n. Caller
// holds c.mu.
func (c *Cached) upsertDirty(n uint64, data []byte) error {
	if e, ok := c.entries[n]; ok {
		copy(e.data, data)
		if !e.dirty {
			e.dirty = true
			c.dirty = append(c.dirty, e)
		}
		c.touch(e)
		return nil
	}
	e := &centry{n: n, data: append([]byte(nil), data...), dirty: true}
	c.entries[n] = e
	c.dirty = append(c.dirty, e)
	c.touch(e)
	return c.evict()
}

// WriteBlocks implements VectorWriter: the whole batch lands in the cache
// under one lock acquisition. Bypassed blocks are forwarded to the device
// in batch order.
func (c *Cached) WriteBlocks(ns []uint64, imgs [][]byte) error {
	if len(ns) != len(imgs) {
		return fmt.Errorf("blockdev: cached vector write: %d blocks, %d images", len(ns), len(imgs))
	}
	var bypassNs []uint64
	var bypassImgs [][]byte
	c.mu.Lock()
	for i, n := range ns {
		if len(imgs[i]) != BlockSize {
			c.mu.Unlock()
			return fmt.Errorf("blockdev: cached write buffer is %d bytes, want %d", len(imgs[i]), BlockSize)
		}
		if c.bypassed(n) {
			bypassNs = append(bypassNs, n)
			bypassImgs = append(bypassImgs, imgs[i])
			continue
		}
		if err := c.upsertDirty(n, imgs[i]); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.mu.Unlock()
	if len(bypassNs) > 0 {
		return WriteBlocks(c.dev, bypassNs, bypassImgs)
	}
	return nil
}

// Sync flushes every dirty block to the device as one vectored write, then
// syncs the device. On failure the dirty set is preserved so no buffered
// write is lost; the caller may retry.
func (c *Cached) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ns []uint64
	var imgs [][]byte
	for _, e := range c.dirty {
		if e.dirty {
			ns = append(ns, e.n)
			imgs = append(imgs, e.data)
		}
	}
	if len(ns) > 0 {
		if err := WriteBlocks(c.dev, ns, imgs); err != nil {
			return fmt.Errorf("blockdev: cache flush: %w", err)
		}
		for _, e := range c.dirty {
			e.dirty = false
		}
		c.writebacks.Add(uint64(len(ns)))
	}
	// Clear before truncating: a re-sliced list would keep its flushed
	// (possibly already evicted) entries reachable from the backing array.
	clear(c.dirty)
	c.dirty = c.dirty[:0]
	return c.dev.Sync()
}

// NumBlocks reports the underlying device size.
func (c *Cached) NumBlocks() uint64 { return c.dev.NumBlocks() }

// Len reports the current number of cached blocks.
func (c *Cached) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats merges the underlying device counters with the cache counters.
func (c *Cached) Stats() Stats {
	s := c.dev.Stats()
	s.CacheHits = c.hits.Load()
	s.CacheMisses = c.misses.Load()
	s.CacheEvictions = c.evictions.Load()
	s.Writebacks = c.writebacks.Load()
	return s
}
