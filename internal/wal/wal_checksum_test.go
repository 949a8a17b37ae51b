package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"repro/internal/blockdev"
)

// snapshot returns the whole image of dev as one byte slice.
func snapshot(tb testing.TB, dev blockdev.Device) []byte {
	tb.Helper()
	img := make([]byte, dev.NumBlocks()*blockdev.BlockSize)
	for b := uint64(0); b < dev.NumBlocks(); b++ {
		if err := dev.ReadBlock(b, img[b*blockdev.BlockSize:(b+1)*blockdev.BlockSize]); err != nil {
			tb.Fatal(err)
		}
	}
	return img
}

// memFrom returns a fresh device holding img.
func memFrom(tb testing.TB, img []byte) *blockdev.Mem {
	tb.Helper()
	dev := blockdev.MustMem(uint64(len(img) / blockdev.BlockSize))
	for b := 0; b < len(img)/blockdev.BlockSize; b++ {
		if err := dev.WriteBlock(uint64(b), img[b*blockdev.BlockSize:(b+1)*blockdev.BlockSize]); err != nil {
			tb.Fatal(err)
		}
	}
	return dev
}

// TestGroupChecksumCoverage seals one two-transaction commit group, then
// flips one byte at a time in every descriptor, every data block (first,
// middle and last byte) and the commit block's checksum slot. Every flip
// must cost the whole group: recovery replays nothing and leaves the
// group's home blocks as the crash left them. Only the checksum can catch
// most of these flips, since they keep every block parseable.
func TestGroupChecksumCoverage(t *testing.T) {
	const devBlocks, jlen = 64, 32
	mem := blockdev.MustMem(devBlocks)
	l, err := Open(mem, 0, jlen)
	if err != nil {
		t.Fatal(err)
	}
	l.Configure(50*time.Millisecond, 8)
	homes := [][]uint64{{40, 41}, {50, 51}}
	var tks []*Ticket
	for i, hs := range homes {
		tx := l.Begin()
		for j, h := range hs {
			if err := tx.Write(h, fill(byte(0x10*(i+1)+j))); err != nil {
				t.Fatal(err)
			}
		}
		tk, err := tx.Enqueue()
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	for _, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Stats(); s.GroupCommits != 1 || s.MaxGroupTxns != 2 {
		t.Fatalf("stats %+v: want both transactions in one commit group", s)
	}
	// Journal layout: [desc1][40][41][desc2][50][51][commit].
	const desc1, desc2, commit = 0, 3, 6
	sealed := snapshot(t, mem)
	zero := make([]byte, blockdev.BlockSize)

	// recoverFlipped recovers a copy of the sealed image whose home blocks
	// the crash lost and whose journal byte off of block b is flipped (no
	// flip when b < 0). It returns the transactions replayed and the
	// device afterwards.
	recoverFlipped := func(b, off int) (int, *blockdev.Mem) {
		img := append([]byte(nil), sealed...)
		for _, hs := range homes {
			for _, h := range hs {
				copy(img[h*blockdev.BlockSize:], zero)
			}
		}
		if b >= 0 {
			img[b*blockdev.BlockSize+off] ^= 0x01
		}
		dev := memFrom(t, img)
		l2, err := Open(dev, 0, jlen)
		if err != nil {
			t.Fatal(err)
		}
		n, err := l2.Recover()
		if err != nil {
			t.Fatalf("Recover (block %d, byte %d): %v", b, off, err)
		}
		return n, dev
	}

	// Control: the intact group replays both transactions.
	n, dev := recoverFlipped(-1, 0)
	if n != 2 {
		t.Fatalf("intact group replayed %d txns, want 2", n)
	}
	got := make([]byte, blockdev.BlockSize)
	for i, hs := range homes {
		for j, h := range hs {
			if err := dev.ReadBlock(h, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fill(byte(0x10*(i+1)+j))) {
				t.Fatalf("intact group: home block %d not restored", h)
			}
		}
	}

	type flip struct {
		what   string
		block  int
		offset int
	}
	var flips []flip
	for _, d := range []int{desc1, desc2} {
		for _, off := range []int{8, headerSize, headerSize + 8, blockdev.BlockSize - 1} {
			flips = append(flips, flip{"descriptor", d, off})
		}
	}
	for _, b := range []int{1, 2, 4, 5} {
		for _, off := range []int{0, blockdev.BlockSize / 2, blockdev.BlockSize - 1} {
			flips = append(flips, flip{"data", b, off})
		}
	}
	for off := 16; off < 24; off++ {
		flips = append(flips, flip{"checksum slot", commit, off})
	}
	for _, f := range flips {
		n, dev := recoverFlipped(f.block, f.offset)
		if n != 0 {
			t.Errorf("%s block %d byte %d flipped: replayed %d txns, want 0", f.what, f.block, f.offset, n)
		}
		for _, hs := range homes {
			for _, h := range hs {
				if err := dev.ReadBlock(h, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, zero) {
					t.Errorf("%s block %d byte %d flipped: home block %d written", f.what, f.block, f.offset, h)
				}
			}
		}
	}
}

// Geometry of the fuzzed device: the journal region is its first
// fuzzJournal blocks, the rest are home blocks. A fuzz input fills the
// first fuzzPrefix bytes of every journal block, the rest stay zero. Every
// parsed field (headers, tags, commit fields) lies in that prefix: a
// descriptor in a six-block region holds at most four tags. Small inputs
// and a small device keep each execution cheap, which matters because the
// fuzzer minimizes every new input it finds at a cost quadratic in its
// length.
const (
	fuzzDevBlocks = 10
	fuzzJournal   = 6
	fuzzPrefix    = 64
)

// fuzzSeed commits txns one-block, one-transaction groups onto a fresh
// device and returns the journal region in fuzz-input form. The data
// images are zero beyond the prefix, so the input is lossless and its
// groups stay sealed. Three such groups overflow the region, so the third
// wraps over the first.
func fuzzSeed(tb testing.TB, txns int) []byte {
	tb.Helper()
	mem := blockdev.MustMem(fuzzDevBlocks)
	l, err := Open(mem, 0, fuzzJournal)
	if err != nil {
		tb.Fatal(err)
	}
	l.Configure(0, 1)
	for i := 0; i < txns; i++ {
		tx := l.Begin()
		img := make([]byte, blockdev.BlockSize)
		copy(img, bytes.Repeat([]byte{byte(0xA0 + i)}, fuzzPrefix))
		if err := tx.Write(fuzzJournal+uint64(i), img); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	img := snapshot(tb, mem)
	var in []byte
	for b := 0; b < fuzzJournal; b++ {
		in = append(in, img[b*blockdev.BlockSize:b*blockdev.BlockSize+fuzzPrefix]...)
	}
	return in
}

// FuzzRecover feeds arbitrary bytes to recovery as the journal region of a
// device. Recovery must never panic or fail on a healthy device, and
// replay must be idempotent: a second recovery of the recovered device
// changes no byte of it.
func FuzzRecover(f *testing.F) {
	valid := fuzzSeed(f, 1)
	f.Add(valid)
	torn := append([]byte(nil), valid...)
	clear(torn[2*fuzzPrefix : 3*fuzzPrefix]) // the commit block
	f.Add(torn)
	f.Add(fuzzSeed(f, 3))
	f.Fuzz(func(t *testing.T, in []byte) {
		img := make([]byte, fuzzDevBlocks*blockdev.BlockSize)
		for b := 0; b < fuzzJournal && len(in) > 0; b++ {
			n := copy(img[b*blockdev.BlockSize:b*blockdev.BlockSize+fuzzPrefix], in)
			in = in[n:]
		}
		dev := memFrom(t, img)
		recoverOnce := func() int {
			l, err := Open(dev, 0, fuzzJournal)
			if err != nil {
				t.Fatal(err)
			}
			n, err := l.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			return n
		}
		n1 := recoverOnce()
		after := snapshot(t, dev)
		if n2 := recoverOnce(); n2 != n1 {
			t.Fatalf("second recovery replayed %d txns, first %d", n2, n1)
		}
		if !bytes.Equal(snapshot(t, dev), after) {
			t.Fatal("second recovery changed the device image")
		}
	})
}

// TestRecoverRejectsUncheckpointableTags: a sealed group whose descriptor
// names a home block inside the journal region or past the device end is
// torn. Replaying the first would overwrite the log being scanned, so a
// second recovery would replay something else; the second can never be
// written. Recovery skips both and still replays the valid group after
// them.
func TestRecoverRejectsUncheckpointableTags(t *testing.T) {
	const devBlocks, jlen = 64, 32
	for _, bad := range []uint64{1, jlen - 1, devBlocks, 1 << 40} {
		mem := blockdev.MustMem(devBlocks)
		l, err := Open(mem, 0, jlen)
		if err != nil {
			t.Fatal(err)
		}
		l.Configure(0, 1)
		for _, h := range []uint64{40, 41} {
			tx := l.Begin()
			if err := tx.Write(h, fill(byte(h))); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Point the first group's only tag at bad and reseal it: the
		// group is [desc][data][commit] at journal blocks 0-2.
		img := snapshot(t, mem)
		desc := img[0:blockdev.BlockSize]
		binary.LittleEndian.PutUint64(desc[headerSize:], bad)
		sum := crc32.Update(0, castagnoli, desc)
		sum = crc32.Update(sum, castagnoli, img[blockdev.BlockSize:2*blockdev.BlockSize])
		binary.LittleEndian.PutUint64(img[2*blockdev.BlockSize+16:], uint64(sum))
		clear(img[40*blockdev.BlockSize : 42*blockdev.BlockSize])
		dev := memFrom(t, img)
		l2, err := Open(dev, 0, jlen)
		if err != nil {
			t.Fatal(err)
		}
		n, err := l2.Recover()
		if err != nil || n != 1 {
			t.Fatalf("tag %d: Recover = %d, %v; want the second group only", bad, n, err)
		}
		after := snapshot(t, dev)
		if !bytes.Equal(after[:jlen*blockdev.BlockSize], img[:jlen*blockdev.BlockSize]) {
			t.Fatalf("tag %d: recovery wrote into the journal region", bad)
		}
		if !bytes.Equal(after[41*blockdev.BlockSize:42*blockdev.BlockSize], fill(41)) {
			t.Fatalf("tag %d: the valid group was not replayed", bad)
		}
	}
}
