// Package wal implements a JBD-style physical write-ahead journal over a
// block device region, with ext3/JBD2-style group commit.
//
// Both filesystems in this reproduction use it: the traditional file-based
// filesystem (internal/plainfs) journals raw block images, and DBFS journals
// the (already encrypted) images of personal-data blocks. The journal is the
// centrepiece of the paper's §1 motivating claim: a filesystem's logging
// mechanism can violate the right to be forgotten, because data deleted at a
// higher layer survives as block images inside the journal region. The
// journal-leak experiment (DESIGN.md F2V1) scans this region for residues.
//
// On-disk format, one commit group of k transactions:
//
//	[descriptor 1] [data]... [descriptor 2] [data]... ... [commit block]
//
// Each descriptor lists the home locations of the data blocks that follow
// it; the single commit block seals the whole group with the transaction
// count, the id of the last transaction, and a CRC32C (Castagnoli, the
// checksum of JBD2's journal_csum_v3, hardware-accelerated by hash/crc32)
// over every descriptor and data block in log order. A single transaction
// is the k=1 case; a commit block with a zero count seals nothing and marks
// its group torn. Recovery scans the journal region, replays every
// transaction inside a group with a valid commit block in ascending
// transaction-id order, and discards torn groups — the standard redo-logging
// protocol, extended to multi-transaction commit records.
//
// Commit path: transactions are sealed by their callers, enqueued, and
// coalesced by a committer goroutine that drains the queue in batches, logs
// each batch with one commit marker and one flush barrier, checkpoints the
// images home, and wakes every waiter. Concurrent committers therefore
// share fsync cost instead of paying it per transaction. Until a
// transaction's images are checkpointed they are visible through
// ReadThrough, so callers that seal under a lock and wait outside it still
// read their predecessors' writes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/blockdev"
)

const (
	// magic identifies journal metadata blocks.
	magic uint32 = 0x72677044 // "rgpD"

	blockTypeDescriptor uint32 = 1
	blockTypeCommit     uint32 = 2

	headerSize = 4 + 4 + 8 + 4 // magic, type, txid, ntags/ntxns

	// MaxBlocksPerTxn is the most home blocks a single transaction can
	// carry: every tag is an 8-byte home block number and all tags must fit
	// in one descriptor block.
	MaxBlocksPerTxn = (blockdev.BlockSize - headerSize) / 8

	// DefaultGroupBatch is the default bound on transactions per commit
	// group. 1 disables batching (every transaction is its own group).
	DefaultGroupBatch = 32
)

// castagnoli is the CRC32C table for the commit-group checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors.
var (
	// ErrTxnTooLarge reports a transaction exceeding MaxBlocksPerTxn.
	ErrTxnTooLarge = errors.New("wal: transaction exceeds max blocks")
	// ErrTxnDone reports reuse of a committed or aborted transaction.
	ErrTxnDone = errors.New("wal: transaction already finished")
	// ErrJournalFull reports a transaction larger than the journal region.
	ErrJournalFull = errors.New("wal: transaction larger than journal region")
	// ErrBadRegion reports an invalid journal region.
	ErrBadRegion = errors.New("wal: invalid journal region")
	// ErrJournalAborted reports a commit attempted after a group flush
	// failed. Once a flush fails the log refuses all further commits (the
	// ext4 journal-abort discipline): later transactions may have staged
	// against the failed group's never-durable images through the
	// in-flight overlay, so persisting them could write metadata that
	// references data the disk never received. Remount (Open + Recover)
	// to continue on the surviving on-disk state.
	ErrJournalAborted = errors.New("wal: journal aborted after flush failure")
)

// Stats counts journal activity.
type Stats struct {
	TxnsCommitted uint64
	BlocksLogged  uint64
	TxnsReplayed  uint64
	// GroupCommits counts commit groups flushed; TxnsCommitted /
	// GroupCommits is the achieved batching factor.
	GroupCommits uint64
	// MaxGroupTxns is the largest group flushed so far.
	MaxGroupTxns uint64
}

// pendingTxn is one sealed transaction waiting in the commit queue.
type pendingTxn struct {
	txid uint64
	home []uint64
	data [][]byte
	done chan error
}

// inflightBlock is the newest enqueued-but-not-yet-checkpointed image of a
// home block, plus how many queued transactions wrote it.
type inflightBlock struct {
	data []byte
	refs int
}

// Log is a write-ahead journal occupying the device blocks
// [start, start+length). It is safe for concurrent use; concurrent
// transactions are coalesced into commit groups.
type Log struct {
	dev    blockdev.Device
	start  uint64
	length uint64

	mu         sync.Mutex
	window     time.Duration
	maxBatch   int
	idle       sync.Cond // signaled when no transaction is queued or in flight
	head       uint64    // next journal-region block index to write (relative)
	seq        uint64    // next transaction id
	stats      Stats
	queue      []*pendingTxn
	committing bool
	pending    int   // enqueued transactions not yet signaled
	aborted    error // first flush failure; non-nil = journal abort
	inflight   map[uint64]*inflightBlock

	// Per-group scratch reused by flushGroup. Only the running committer
	// touches it, and committers hand over strictly in sequence under mu.
	// Reuse is safe because every device the journal sits on copies what
	// it writes and keeps no reference to the caller's buffers.
	descs [][]byte
	com   []byte
	ns    []uint64
	imgs  [][]byte
}

// Open attaches a journal to the region [start, start+length) of dev. The
// region must hold at least three blocks (descriptor + one data + commit).
// Open does not replay; call Recover first when mounting an existing device.
func Open(dev blockdev.Device, start, length uint64) (*Log, error) {
	if length < 3 {
		return nil, fmt.Errorf("%w: need >= 3 blocks, got %d", ErrBadRegion, length)
	}
	if start+length > dev.NumBlocks() {
		return nil, fmt.Errorf("%w: region [%d,%d) beyond device end %d",
			ErrBadRegion, start, start+length, dev.NumBlocks())
	}
	l := &Log{
		dev:      dev,
		start:    start,
		length:   length,
		seq:      1,
		maxBatch: DefaultGroupBatch,
		inflight: make(map[uint64]*inflightBlock),
	}
	l.idle.L = &l.mu
	return l, nil
}

// Configure sets the group-commit parameters: window is how long a freshly
// woken committer waits for more transactions to arrive before draining the
// queue (0 = drain immediately, batching only what queued during the
// previous flush); maxBatch bounds transactions per group (<= 0 restores
// DefaultGroupBatch, 1 disables batching). Safe to call at any time, even
// with transactions in flight: the committer re-reads both parameters
// under the lock, so a running group finishes with the values it started
// with and the next group picks up the new ones.
func (l *Log) Configure(window time.Duration, maxBatch int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if maxBatch <= 0 {
		maxBatch = DefaultGroupBatch
	}
	l.window = window
	l.maxBatch = maxBatch
}

// Config reports the current group-commit parameters.
func (l *Log) Config() (window time.Duration, maxBatch int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.window, l.maxBatch
}

// Stats returns a snapshot of the journal counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Region reports the journal's block range [start, start+length) so
// experiments can attribute residue hits to the journal area.
func (l *Log) Region() (start, length uint64) {
	return l.start, l.length
}

// ReadThrough reads block n, preferring the image of the newest enqueued
// transaction that wrote it over the device contents. Callers that stage
// transactions under an external lock but wait for durability outside it
// must read through this overlay, or they would miss the writes of
// predecessors whose groups have not checkpointed yet.
func (l *Log) ReadThrough(n uint64, buf []byte) error {
	l.mu.Lock()
	if e, ok := l.inflight[n]; ok {
		copy(buf, e.data)
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	return l.dev.ReadBlock(n, buf)
}

// Barrier blocks until every enqueued transaction has been flushed and
// checkpointed (or failed). Callers that bypass the journal on purpose —
// the secure-free zero pass writes home locations directly — barrier first
// so no queued checkpoint can resurrect the bytes they scrub.
func (l *Log) Barrier() {
	l.mu.Lock()
	for l.pending > 0 {
		l.idle.Wait()
	}
	l.mu.Unlock()
}

// Txn is a pending transaction: a buffered set of whole-block writes that
// become durable atomically at Commit.
type Txn struct {
	log  *Log
	home []uint64
	data [][]byte
	done bool
}

// Begin starts a transaction.
func (l *Log) Begin() *Txn {
	return &Txn{log: l}
}

// Write buffers a whole-block write to home block n. The data is copied, so
// the caller may reuse the buffer. Writing the same block twice in one
// transaction replaces the earlier image.
func (t *Txn) Write(n uint64, data []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if len(data) != blockdev.BlockSize {
		return blockdev.ErrBadSize
	}
	for i, h := range t.home {
		if h == n {
			copy(t.data[i], data)
			return nil
		}
	}
	if len(t.home) >= MaxBlocksPerTxn {
		return fmt.Errorf("%w: %d blocks", ErrTxnTooLarge, len(t.home)+1)
	}
	cp := make([]byte, blockdev.BlockSize)
	copy(cp, data)
	t.home = append(t.home, n)
	t.data = append(t.data, cp)
	return nil
}

// Read returns the buffered image of block n if this transaction wrote it,
// giving read-your-writes semantics within a transaction.
func (t *Txn) Read(n uint64) ([]byte, bool) {
	for i, h := range t.home {
		if h == n {
			out := make([]byte, blockdev.BlockSize)
			copy(out, t.data[i])
			return out, true
		}
	}
	return nil, false
}

// Len reports the number of distinct blocks buffered.
func (t *Txn) Len() int { return len(t.home) }

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.done = true
	t.home, t.data = nil, nil
}

// Ticket is a claim on an enqueued transaction's durability.
type Ticket struct {
	p *pendingTxn
}

// Wait blocks until the ticket's transaction has been flushed as part of a
// commit group and checkpointed home, returning the group's outcome.
func (tk *Ticket) Wait() error {
	return <-tk.p.done
}

// Enqueue seals the transaction and hands it to the committer. It returns a
// Ticket to wait on (nil for an empty transaction, which needs no IO). The
// transaction's images become visible through ReadThrough immediately, so a
// caller staging under a lock may enqueue, release the lock, and Wait — the
// next transaction staged under that lock reads its predecessor's writes.
func (t *Txn) Enqueue() (*Ticket, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	t.done = true
	if len(t.home) == 0 {
		return nil, nil
	}
	l := t.log
	needed := uint64(len(t.home) + 2) // descriptor + data + commit
	if needed > l.length {
		return nil, fmt.Errorf("%w: txn needs %d blocks, journal has %d", ErrJournalFull, needed, l.length)
	}
	p := &pendingTxn{home: t.home, data: t.data, done: make(chan error, 1)}

	l.mu.Lock()
	if l.aborted != nil {
		cause := l.aborted
		l.mu.Unlock()
		return nil, fmt.Errorf("%w (cause: %v)", ErrJournalAborted, cause)
	}
	p.txid = l.seq
	l.seq++
	l.queue = append(l.queue, p)
	l.pending++
	for i, h := range p.home {
		if e, ok := l.inflight[h]; ok {
			e.data = p.data[i]
			e.refs++
		} else {
			l.inflight[h] = &inflightBlock{data: p.data[i], refs: 1}
		}
	}
	if !l.committing {
		l.committing = true
		go l.committer()
	}
	l.mu.Unlock()
	return &Ticket{p: p}, nil
}

// Commit makes the transaction durable: it enqueues the transaction and
// waits for its commit group to be logged, flushed, and checkpointed. An
// empty transaction commits as a no-op.
func (t *Txn) Commit() error {
	tk, err := t.Enqueue()
	if err != nil || tk == nil {
		return err
	}
	return tk.Wait()
}

// takeBatchLocked pops the next commit group off the queue: up to maxBatch
// transactions whose descriptors, data and shared commit block fit the
// journal region together. It returns the group and its block count.
func (l *Log) takeBatchLocked() ([]*pendingTxn, uint64) {
	needed := uint64(1) // shared commit block
	var batch []*pendingTxn
	for len(l.queue) > 0 && len(batch) < l.maxBatch {
		p := l.queue[0]
		pn := uint64(len(p.home)) + 1 // descriptor + data
		if len(batch) > 0 && needed+pn > l.length {
			break
		}
		batch = append(batch, p)
		needed += pn
		l.queue[0] = nil // drop the backing-array reference to the images
		l.queue = l.queue[1:]
	}
	return batch, needed
}

// committer drains the commit queue in groups until it is empty, then
// exits; the next Enqueue starts a fresh one. Only one committer runs at a
// time, so groups are logged and checkpointed strictly in queue order.
func (l *Log) committer() {
	l.mu.Lock()
	window := l.window
	l.mu.Unlock()
	if window > 0 {
		time.Sleep(window)
	}
	for {
		l.mu.Lock()
		batch, needed := l.takeBatchLocked()
		if len(batch) == 0 {
			l.committing = false
			l.mu.Unlock()
			return
		}
		var err error
		if aborted := l.aborted; aborted != nil {
			// Journal abort: later groups may depend (via the overlay) on
			// the failed group's images — fail them instead of flushing.
			l.mu.Unlock()
			err = fmt.Errorf("%w (cause: %v)", ErrJournalAborted, aborted)
		} else {
			// Groups never wrap: if the tail cannot hold this group, start
			// again from the beginning of the region. The previous group is
			// already checkpointed (the committer is sequential), so
			// overwriting old journal blocks is harmless; recovery rescans
			// the whole region.
			if l.head+needed > l.length {
				l.head = 0
			}
			groupStart := l.start + l.head
			l.head += needed
			l.mu.Unlock()

			// Device IO happens outside l.mu so new transactions keep
			// enqueueing (and reading through the overlay) during the
			// flush — that overlap is where the batching comes from.
			err = l.flushGroup(groupStart, batch)
		}

		l.mu.Lock()
		if err != nil && l.aborted == nil {
			l.aborted = err
		}
		if err == nil {
			l.stats.GroupCommits++
			if uint64(len(batch)) > l.stats.MaxGroupTxns {
				l.stats.MaxGroupTxns = uint64(len(batch))
			}
			for _, p := range batch {
				l.stats.TxnsCommitted++
				l.stats.BlocksLogged += uint64(len(p.home))
			}
		}
		for _, p := range batch {
			for _, h := range p.home {
				if e, ok := l.inflight[h]; ok {
					e.refs--
					if e.refs == 0 {
						delete(l.inflight, h)
					}
				}
			}
		}
		l.pending -= len(batch)
		if l.pending == 0 {
			l.idle.Broadcast()
		}
		l.mu.Unlock()
		for _, p := range batch {
			p.done <- err
		}
	}
}

// flushGroup logs one commit group at groupStart (absolute device block):
// per-transaction descriptors and data images, one shared commit block, one
// flush barrier; then checkpoints every image home and flushes again. Both
// write passes are submitted as vectors so devices (and the IO-driver bus)
// charge them as batches.
func (l *Log) flushGroup(groupStart uint64, batch []*pendingTxn) error {
	ns, imgs := l.ns[:0], l.imgs[:0]
	defer func() {
		// Drop the image references so the scratch pins no transaction
		// data between groups.
		clear(imgs)
		l.ns, l.imgs = ns[:0], imgs[:0]
	}()
	var sum uint32
	blk := groupStart
	for k, p := range batch {
		if k == len(l.descs) {
			l.descs = append(l.descs, make([]byte, blockdev.BlockSize))
		}
		desc := l.descs[k]
		clear(desc)
		binary.LittleEndian.PutUint32(desc[0:], magic)
		binary.LittleEndian.PutUint32(desc[4:], blockTypeDescriptor)
		binary.LittleEndian.PutUint64(desc[8:], p.txid)
		binary.LittleEndian.PutUint32(desc[16:], uint32(len(p.home)))
		for i, h := range p.home {
			binary.LittleEndian.PutUint64(desc[headerSize+8*i:], h)
		}
		sum = crc32.Update(sum, castagnoli, desc)
		ns = append(ns, blk)
		imgs = append(imgs, desc)
		blk++
		for _, img := range p.data {
			sum = crc32.Update(sum, castagnoli, img)
			ns = append(ns, blk)
			imgs = append(imgs, img)
			blk++
		}
	}
	if l.com == nil {
		l.com = make([]byte, blockdev.BlockSize)
	}
	com := l.com
	binary.LittleEndian.PutUint32(com[0:], magic)
	binary.LittleEndian.PutUint32(com[4:], blockTypeCommit)
	binary.LittleEndian.PutUint64(com[8:], batch[len(batch)-1].txid)
	binary.LittleEndian.PutUint64(com[16:], uint64(sum))
	binary.LittleEndian.PutUint32(com[24:], uint32(len(batch)))
	ns = append(ns, blk)
	imgs = append(imgs, com)

	if err := blockdev.WriteBlocks(l.dev, ns, imgs); err != nil {
		return fmt.Errorf("wal: write commit group: %w", err)
	}
	if err := l.dev.Sync(); err != nil {
		return fmt.Errorf("wal: sync journal: %w", err)
	}

	// Checkpoint: apply images to home locations in transaction order, so
	// a block written by two transactions in the group ends at the later
	// image — the same winner replay would pick.
	hns := ns[:0]
	himgs := imgs[:0]
	for _, p := range batch {
		for i, h := range p.home {
			hns = append(hns, h)
			himgs = append(himgs, p.data[i])
		}
	}
	if err := blockdev.WriteBlocks(l.dev, hns, himgs); err != nil {
		return fmt.Errorf("wal: checkpoint group: %w", err)
	}
	if err := l.dev.Sync(); err != nil {
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	return nil
}

// replayTxn is one committed transaction found during recovery.
type replayTxn struct {
	txid uint64
	home []uint64
	data [][]byte
}

// scanGroup parses one commit group starting at the descriptor at relative
// block i. It returns the group's transactions and its end offset, or
// ok=false if the group is torn (no valid commit block sealing exactly the
// parsed segments).
func (l *Log) scanGroup(i uint64) (segs []replayTxn, end uint64, ok bool) {
	var sum uint32
	buf := make([]byte, blockdev.BlockSize)
	j := i
	for {
		if j >= l.length {
			return nil, 0, false
		}
		if err := l.dev.ReadBlock(l.start+j, buf); err != nil {
			return nil, 0, false
		}
		if binary.LittleEndian.Uint32(buf[0:]) == magic &&
			binary.LittleEndian.Uint32(buf[4:]) == blockTypeCommit {
			// End of group: the commit block must seal exactly the
			// segments parsed, carry the last segment's txid, and match
			// the running checksum.
			if len(segs) == 0 {
				return nil, 0, false
			}
			if int(binary.LittleEndian.Uint32(buf[24:])) != len(segs) ||
				binary.LittleEndian.Uint64(buf[8:]) != segs[len(segs)-1].txid ||
				binary.LittleEndian.Uint64(buf[16:]) != uint64(sum) {
				return nil, 0, false
			}
			return segs, j + 1, true
		}
		if binary.LittleEndian.Uint32(buf[0:]) != magic ||
			binary.LittleEndian.Uint32(buf[4:]) != blockTypeDescriptor {
			return nil, 0, false
		}
		txid := binary.LittleEndian.Uint64(buf[8:])
		ntags := binary.LittleEndian.Uint32(buf[16:])
		if ntags == 0 || ntags > uint32(MaxBlocksPerTxn) || j+uint64(ntags)+2 > l.length {
			return nil, 0, false
		}
		sum = crc32.Update(sum, castagnoli, buf)
		home := make([]uint64, ntags)
		for k := uint32(0); k < ntags; k++ {
			h := binary.LittleEndian.Uint64(buf[headerSize+8*k:])
			// A home block past the device end or inside the journal
			// region was never checkpointable: replaying it would fail,
			// or overwrite the log being scanned and make a second
			// recovery replay something else.
			if h >= l.dev.NumBlocks() || (h >= l.start && h < l.start+l.length) {
				return nil, 0, false
			}
			home[k] = h
		}
		data := make([][]byte, 0, ntags)
		for k := uint32(0); k < ntags; k++ {
			img := make([]byte, blockdev.BlockSize)
			if err := l.dev.ReadBlock(l.start+j+1+uint64(k), img); err != nil {
				return nil, 0, false
			}
			sum = crc32.Update(sum, castagnoli, img)
			data = append(data, img)
		}
		segs = append(segs, replayTxn{txid: txid, home: home, data: data})
		j += uint64(ntags) + 1
	}
}

// Recover scans the journal region, validates commit groups, and replays
// every transaction of every sealed group in ascending transaction-id
// order. It returns the number of transactions replayed. Torn groups
// (missing or corrupt commit blocks, including a group cut mid-write) are
// discarded whole, which is the crash-consistency contract.
func (l *Log) Recover() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	var txns []replayTxn
	buf := make([]byte, blockdev.BlockSize)
	var maxTxid uint64

	for i := uint64(0); i < l.length; {
		if err := l.dev.ReadBlock(l.start+i, buf); err != nil {
			// Unreadable journal block: resync by skipping it.
			i++
			continue
		}
		if binary.LittleEndian.Uint32(buf[0:]) != magic ||
			binary.LittleEndian.Uint32(buf[4:]) != blockTypeDescriptor {
			i++
			continue
		}
		segs, end, ok := l.scanGroup(i)
		if !ok {
			// Torn group: skip just the first descriptor so a later
			// group at an odd offset can still be found.
			i++
			continue
		}
		for _, tx := range segs {
			txns = append(txns, tx)
			if tx.txid > maxTxid {
				maxTxid = tx.txid
			}
		}
		i = end
	}

	// Replay in ascending txid order so later images win.
	for a := 0; a < len(txns); a++ {
		for b := a + 1; b < len(txns); b++ {
			if txns[b].txid < txns[a].txid {
				txns[a], txns[b] = txns[b], txns[a]
			}
		}
	}
	for _, tx := range txns {
		for i, h := range tx.home {
			if err := l.dev.WriteBlock(h, tx.data[i]); err != nil {
				return 0, fmt.Errorf("wal: replay block %d: %w", h, err)
			}
		}
	}
	if len(txns) > 0 {
		if err := l.dev.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync replay: %w", err)
		}
	}
	if maxTxid >= l.seq {
		l.seq = maxTxid + 1
	}
	l.stats.TxnsReplayed += uint64(len(txns))
	return len(txns), nil
}
