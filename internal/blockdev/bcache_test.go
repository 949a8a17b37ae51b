package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// flakyDev injects togglable read/write failures under the cache, so tests
// control exactly which operation fails (unlike Faulty's probabilistic
// injection).
type flakyDev struct {
	dev *Mem

	mu         sync.Mutex
	failReads  bool
	failWrites bool
}

func (f *flakyDev) set(reads, writes bool) {
	f.mu.Lock()
	f.failReads, f.failWrites = reads, writes
	f.mu.Unlock()
}

func (f *flakyDev) ReadBlock(n uint64, buf []byte) error {
	f.mu.Lock()
	fail := f.failReads
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: read block %d", ErrIO, n)
	}
	return f.dev.ReadBlock(n, buf)
}

func (f *flakyDev) WriteBlock(n uint64, data []byte) error {
	f.mu.Lock()
	fail := f.failWrites
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: write block %d", ErrIO, n)
	}
	return f.dev.WriteBlock(n, data)
}

func (f *flakyDev) NumBlocks() uint64 { return f.dev.NumBlocks() }
func (f *flakyDev) Sync() error       { return f.dev.Sync() }
func (f *flakyDev) Stats() Stats      { return f.dev.Stats() }

func pat(v byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = v
	}
	return b
}

// TestCachedReadThrough: a miss fills from the device and counts once; the
// repeat read is a hit served from memory with no device traffic.
func TestCachedReadThrough(t *testing.T) {
	mem := MustMem(32)
	if err := mem.WriteBlock(5, pat(0xAA)); err != nil {
		t.Fatal(err)
	}
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := mem.Stats().Reads
	buf := make([]byte, BlockSize)
	for i := 0; i < 3; i++ {
		if err := c.ReadBlock(5, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(0xAA)) {
			t.Fatalf("read %d returned wrong data", i)
		}
	}
	s := c.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", s.CacheHits, s.CacheMisses)
	}
	if got := mem.Stats().Reads - base; got != 1 {
		t.Fatalf("device reads = %d, want 1 (cache must absorb repeats)", got)
	}
}

// TestCachedWriteBackDeferred: a write dirties the cache only; the device
// sees it at Sync, after which the data is durable.
func TestCachedWriteBackDeferred(t *testing.T) {
	mem := MustMem(32)
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(7, pat(0xBB)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if err := mem.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("write reached the device before Sync (write-back broken)")
	}
	// The cache itself must serve the buffered image.
	if err := c.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(0xBB)) {
		t.Fatal("cache lost the buffered write")
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(0xBB)) {
		t.Fatal("Sync did not flush the dirty block")
	}
	if s := c.Stats(); s.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", s.Writebacks)
	}
}

// TestCachedLRUBound: the cache never exceeds its capacity, and dirty
// victims are written back on eviction rather than dropped.
func TestCachedLRUBound(t *testing.T) {
	mem := MustMem(64)
	c, err := NewCached(mem, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := c.WriteBlock(10+i, pat(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > 4 {
		t.Fatalf("cache holds %d blocks, cap 4", n)
	}
	s := c.Stats()
	if s.CacheEvictions < 4 {
		t.Fatalf("evictions = %d, want >= 4", s.CacheEvictions)
	}
	// The four oldest blocks were evicted dirty; their data must be on the
	// device already.
	got := make([]byte, BlockSize)
	for i := uint64(0); i < 4; i++ {
		if err := mem.ReadBlock(10+i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pat(byte(i+1))) {
			t.Fatalf("evicted block %d not written back", 10+i)
		}
	}
	// Everything survives a full flush.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := mem.ReadBlock(10+i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pat(byte(i+1))) {
			t.Fatalf("block %d lost", 10+i)
		}
	}
}

// TestCachedReadErrorNoPoison: a failed miss fill must not leave a cache
// entry behind; once the device recovers, the real data is served.
func TestCachedReadErrorNoPoison(t *testing.T) {
	mem := MustMem(32)
	if err := mem.WriteBlock(3, pat(0xCC)); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyDev{dev: mem}
	c, err := NewCached(flaky, 8)
	if err != nil {
		t.Fatal(err)
	}
	flaky.set(true, false)
	buf := make([]byte, BlockSize)
	if err := c.ReadBlock(3, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("read err = %v, want ErrIO", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed fill left %d poisoned entries", c.Len())
	}
	flaky.set(false, false)
	if err := c.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat(0xCC)) {
		t.Fatal("recovered read returned wrong data")
	}
}

// TestCachedEvictionWritebackFailure: when evicting a dirty victim fails
// with ErrIO, the block stays cached and dirty — no buffered write is ever
// lost — and a later Sync lands it once the device recovers.
func TestCachedEvictionWritebackFailure(t *testing.T) {
	mem := MustMem(32)
	flaky := &flakyDev{dev: mem}
	c, err := NewCached(flaky, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(4, pat(0x44)); err != nil {
		t.Fatal(err)
	}
	flaky.set(false, true)
	// Inserting a second block forces an eviction of dirty block 4, which
	// fails; the error surfaces and block 4 must survive in the cache.
	if err := c.WriteBlock(5, pat(0x55)); !errors.Is(err, ErrIO) {
		t.Fatalf("eviction err = %v, want ErrIO", err)
	}
	buf := make([]byte, BlockSize)
	if err := c.ReadBlock(4, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat(0x44)) {
		t.Fatal("dirty block lost after failed eviction writeback")
	}
	// Sync also fails while the device is down, and still loses nothing.
	if err := c.Sync(); !errors.Is(err, ErrIO) {
		t.Fatalf("sync err = %v, want ErrIO", err)
	}
	flaky.set(false, false)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, blk := range []struct {
		n uint64
		v byte
	}{{4, 0x44}, {5, 0x55}} {
		if err := mem.ReadBlock(blk.n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(blk.v)) {
			t.Fatalf("block %d not durable after recovery", blk.n)
		}
	}
}

// TestCachedVectorWrite: a batched write lands wholly in the cache under
// one lock and flushes correctly.
func TestCachedVectorWrite(t *testing.T) {
	mem := MustMem(32)
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	ns := []uint64{11, 12, 13}
	imgs := [][]byte{pat(1), pat(2), pat(3)}
	if err := c.WriteBlocks(ns, imgs); err != nil {
		t.Fatal(err)
	}
	if w := mem.Stats().Writes; w != 0 {
		t.Fatalf("device writes = %d before Sync, want 0", w)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	for i, n := range ns {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, imgs[i]) {
			t.Fatalf("block %d wrong after flush", n)
		}
	}
}

// TestCachedBypass: blocks inside the bypass range go straight to the
// device in both directions and never occupy cache slots.
func TestCachedBypass(t *testing.T) {
	mem := MustMem(64)
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBypass(20, 10)
	if err := c.WriteBlock(25, pat(0xEE)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if err := mem.ReadBlock(25, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(0xEE)) {
		t.Fatal("bypassed write did not reach the device immediately")
	}
	if err := c.ReadBlock(25, got); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("bypassed blocks occupy %d cache slots", c.Len())
	}
	s := c.Stats()
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Fatalf("bypassed I/O counted as hits=%d misses=%d", s.CacheHits, s.CacheMisses)
	}
	// Outside the range caching still works.
	if err := c.WriteBlock(40, pat(0x40)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cacheable block not cached (len=%d)", c.Len())
	}
}

// TestCachedSyncFlushesExactlyTheDirtySet: Sync writes each dirty block
// once — rewrites and clean (read-filled) entries add nothing — and a Sync
// on a clean cache writes no block at all.
func TestCachedSyncFlushesExactlyTheDirtySet(t *testing.T) {
	mem := MustMem(64)
	c, err := NewCached(mem, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if w := mem.Stats().Writes; w != 0 {
		t.Fatalf("Sync of an empty cache wrote %d blocks", w)
	}
	buf := make([]byte, BlockSize)
	for n := uint64(20); n < 25; n++ {
		if err := c.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []uint64{1, 2, 3, 2, 5, 1} {
		if err := c.WriteBlock(n, pat(byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBlocks([]uint64{3, 6}, [][]byte{pat(0x33), pat(6)}); err != nil {
		t.Fatal(err)
	}
	before := mem.Stats().Writes
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Writes - before; got != 5 {
		t.Fatalf("Sync wrote %d blocks, want the 5 dirty ones", got)
	}
	if s := c.Stats(); s.Writebacks != 5 {
		t.Fatalf("Writebacks = %d, want 5", s.Writebacks)
	}
	for n, v := range map[uint64]byte{1: 1, 2: 2, 3: 0x33, 5: 5, 6: 6} {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(v)) {
			t.Fatalf("block %d not flushed with its last image", n)
		}
	}
	before = mem.Stats().Writes
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Writes - before; got != 0 {
		t.Fatalf("Sync of a clean cache wrote %d blocks", got)
	}
}

// TestCachedEvictedDirtyNotRewritten: a dirty block written back by
// eviction is clean, so the next Sync flushes only the blocks still dirty
// — even after the evicted block is cached again by a read.
func TestCachedEvictedDirtyNotRewritten(t *testing.T) {
	mem := MustMem(64)
	c, err := NewCached(mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{1, 2, 3} { // writing 3 evicts dirty 1
		if err := c.WriteBlock(n, pat(byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if w, wb := mem.Stats().Writes, c.Stats().Writebacks; w != 1 || wb != 1 {
		t.Fatalf("after eviction: device writes %d, writebacks %d, want 1/1", w, wb)
	}
	buf := make([]byte, BlockSize)
	if err := c.ReadBlock(1, buf); err != nil { // refill 1 clean, evicting dirty 2
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat(1)) {
		t.Fatal("evicted block lost its written-back image")
	}
	before := mem.Stats().Writes
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Writes - before; got != 1 {
		t.Fatalf("Sync wrote %d blocks, want 1 (only block 3 is still dirty)", got)
	}
	if wb := c.Stats().Writebacks; wb != 3 {
		t.Fatalf("Writebacks = %d, want 3 (two evictions, one flush)", wb)
	}
	for n := uint64(1); n <= 3; n++ {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(byte(n))) {
			t.Fatalf("block %d not durable", n)
		}
	}
}

// TestCachedFailedSyncKeepsDirtySet: a flush that fails keeps every block
// dirty, and the retry writes the same set — no fewer blocks (nothing
// lost), no more.
func TestCachedFailedSyncKeepsDirtySet(t *testing.T) {
	mem := MustMem(64)
	flaky := &flakyDev{dev: mem}
	c, err := NewCached(flaky, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{4, 5, 6} {
		if err := c.WriteBlock(n, pat(byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	flaky.set(false, true)
	for i := 0; i < 2; i++ {
		if err := c.Sync(); !errors.Is(err, ErrIO) {
			t.Fatalf("sync %d err = %v, want ErrIO", i, err)
		}
	}
	flaky.set(false, false)
	if err := c.WriteBlock(7, pat(7)); err != nil {
		t.Fatal(err)
	}
	before := mem.Stats().Writes
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Writes - before; got != 4 {
		t.Fatalf("retry wrote %d blocks, want 4", got)
	}
	if wb := c.Stats().Writebacks; wb != 4 {
		t.Fatalf("Writebacks = %d, want 4 (failed flushes count none)", wb)
	}
	buf := make([]byte, BlockSize)
	for n := uint64(4); n <= 7; n++ {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(byte(n))) {
			t.Fatalf("block %d not durable after the retry", n)
		}
	}
}

// TestCachedConcurrentWriteSync races vector writes (enough distinct blocks
// to churn evictions) against repeated Syncs. After a final Sync every
// block holds its last image on the device and the cache is clean. CI runs
// it under -race -count=10.
func TestCachedConcurrentWriteSync(t *testing.T) {
	const writers, rounds, span = 4, 50, 8
	mem := MustMem(64)
	c, err := NewCached(mem, 6)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	syncErr := make(chan error, 1)
	go func() {
		defer close(syncErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Sync(); err != nil {
				syncErr <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ns := make([]uint64, span)
			imgs := make([][]byte, span)
			for r := 0; r < rounds; r++ {
				for i := range ns {
					ns[i] = uint64(w*span + i)
					imgs[i] = pat(byte(r))
				}
				if err := c.WriteBlocks(ns, imgs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-syncErr; err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	for n := uint64(0); n < writers*span; n++ {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(rounds-1)) {
			t.Fatalf("block %d not durable with its last image", n)
		}
	}
	before := mem.Stats().Writes
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Writes - before; got != 0 {
		t.Fatalf("cache not clean after the final Sync: %d blocks rewritten", got)
	}
}
