package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewMemRejectsZeroBlocks(t *testing.T) {
	if _, err := NewMem(0, DefaultLatency()); err == nil {
		t.Fatal("NewMem(0) succeeded, want error")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	dev := MustMem(8)
	in := make([]byte, BlockSize)
	for i := range in {
		in[i] = byte(i % 251)
	}
	if err := dev.WriteBlock(3, in); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	out := make([]byte, BlockSize)
	if err := dev.ReadBlock(3, out); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("read data differs from written data")
	}
}

func TestFreshBlocksAreZero(t *testing.T) {
	dev := MustMem(2)
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(1, buf); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("fresh block has non-zero byte at %d", i)
		}
	}
}

func TestOutOfRange(t *testing.T) {
	dev := MustMem(4)
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(4, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadBlock(4) err = %v, want ErrOutOfRange", err)
	}
	if err := dev.WriteBlock(99, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteBlock(99) err = %v, want ErrOutOfRange", err)
	}
}

func TestBadBufferSize(t *testing.T) {
	dev := MustMem(4)
	if err := dev.ReadBlock(0, make([]byte, 10)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short read buffer err = %v, want ErrBadSize", err)
	}
	if err := dev.WriteBlock(0, make([]byte, BlockSize+1)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("long write buffer err = %v, want ErrBadSize", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	dev := MustMem(4)
	buf := make([]byte, BlockSize)
	for i := 0; i < 3; i++ {
		if err := dev.WriteBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := dev.ReadBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.Writes != 3 || s.Reads != 2 || s.Syncs != 1 {
		t.Fatalf("stats = %+v, want 3 writes / 2 reads / 1 sync", s)
	}
	lat := DefaultLatency()
	want := 3*lat.WriteCost + 2*lat.ReadCost + lat.SyncCost
	if s.SimLatency != want {
		t.Fatalf("SimLatency = %v, want %v", s.SimLatency, want)
	}
	if s.BytesWritten != 3*BlockSize || s.BytesRead != 2*BlockSize {
		t.Fatalf("byte counters = %+v", s)
	}
}

func TestFailedOpsDoNotCount(t *testing.T) {
	dev := MustMem(1)
	buf := make([]byte, BlockSize)
	_ = dev.ReadBlock(5, buf) // out of range
	if s := dev.Stats(); s.Reads != 0 {
		t.Fatalf("failed read was counted: %+v", s)
	}
}

func TestFindResidue(t *testing.T) {
	dev := MustMem(8)
	secret := []byte("SSN-123-45-6789")
	block := make([]byte, BlockSize)
	copy(block[100:], secret)
	if err := dev.WriteBlock(2, block); err != nil {
		t.Fatal(err)
	}
	// The vector path must mark its blocks written too, or the scan would
	// skip them.
	if err := dev.WriteBlocks([]uint64{5}, [][]byte{block}); err != nil {
		t.Fatal(err)
	}
	hits := FindResidue(dev, secret)
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 5 {
		t.Fatalf("FindResidue = %v, want [2 5]", hits)
	}
	if got := FindResidue(dev, []byte("absent")); got != nil {
		t.Fatalf("FindResidue(absent) = %v, want nil", got)
	}
	if got := FindResidue(dev, nil); got != nil {
		t.Fatalf("FindResidue(nil pattern) = %v, want nil", got)
	}
}

func TestFindResidueAny(t *testing.T) {
	dev := MustMem(8)
	block := make([]byte, BlockSize)
	copy(block[10:], "alpha-secret")
	copy(block[200:], "beta-secret")
	if err := dev.WriteBlock(1, block); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(4, block); err != nil {
		t.Fatal(err)
	}
	// alpha hits blocks 1 and 4, beta hits blocks 1 and 4, gamma none:
	// 4 (pattern, block) pairs total, counted in one traversal.
	got := FindResidueAny(dev, [][]byte{
		[]byte("alpha-secret"), []byte("beta-secret"), []byte("gamma-secret"),
	})
	if got != 4 {
		t.Fatalf("FindResidueAny = %d, want 4", got)
	}
	if got := FindResidueAny(dev, nil); got != 0 {
		t.Fatalf("FindResidueAny(nil) = %d, want 0", got)
	}
	if got := FindResidueAny(dev, [][]byte{nil, {}}); got != 0 {
		t.Fatalf("FindResidueAny(empty patterns) = %d, want 0", got)
	}
	// The batch count must agree with per-pattern FindResidue block counts.
	want := len(FindResidue(dev, []byte("alpha-secret"))) +
		len(FindResidue(dev, []byte("beta-secret")))
	if got := FindResidueAny(dev, [][]byte{[]byte("alpha-secret"), []byte("beta-secret")}); got != want {
		t.Fatalf("FindResidueAny = %d, FindResidue sum = %d", got, want)
	}
}

func TestFindResidueSpanningBlocks(t *testing.T) {
	dev := MustMem(4)
	// A pattern written across the block 0/1 boundary must be found and
	// attributed to the block where it begins.
	a := make([]byte, BlockSize)
	b := make([]byte, BlockSize)
	copy(a[BlockSize-3:], "SEC")
	copy(b, "RET")
	if err := dev.WriteBlock(0, a); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(1, b); err != nil {
		t.Fatal(err)
	}
	hits := FindResidue(dev, []byte("SECRET"))
	if len(hits) != 1 || hits[0] != 0 {
		t.Fatalf("FindResidue across boundary = %v, want [0]", hits)
	}
}

// refFindResidue and refFindResidueAny are the byte-at-a-time scanners the
// in-place kernel replaced, kept as the reference it must agree with.
func refFindResidue(img, pattern []byte) []uint64 {
	if len(pattern) == 0 {
		return nil
	}
	var hits []uint64
	seen := make(map[uint64]bool)
	for i := 0; i+len(pattern) <= len(img); i++ {
		if img[i] != pattern[0] {
			continue
		}
		match := true
		for j := 1; j < len(pattern); j++ {
			if img[i+j] != pattern[j] {
				match = false
				break
			}
		}
		if match {
			b := uint64(i) / BlockSize
			if !seen[b] {
				seen[b] = true
				hits = append(hits, b)
			}
		}
	}
	return hits
}

func refFindResidueAny(img []byte, patterns [][]byte) int {
	var first [256][]int
	for idx, p := range patterns {
		if len(p) > 0 {
			first[p[0]] = append(first[p[0]], idx)
		}
	}
	seen := make(map[[2]uint64]bool)
	hits := 0
	for i := 0; i < len(img); i++ {
		for _, idx := range first[img[i]] {
			p := patterns[idx]
			if i+len(p) > len(img) {
				continue
			}
			match := true
			for j := 1; j < len(p); j++ {
				if img[i+j] != p[j] {
					match = false
					break
				}
			}
			if match {
				key := [2]uint64{uint64(idx), uint64(i) / BlockSize}
				if !seen[key] {
					seen[key] = true
					hits++
				}
			}
		}
	}
	return hits
}

// rawImage copies the device contents for the reference scanners.
func rawImage(dev *Mem) []byte {
	dev.mu.RLock()
	defer dev.mu.RUnlock()
	return append([]byte(nil), dev.blocks...)
}

// checkAgainstRef asserts that the kernel-backed scanners match the
// reference on dev for every pattern on its own and for the whole set.
func checkAgainstRef(t *testing.T, dev *Mem, patterns [][]byte) {
	t.Helper()
	img := rawImage(dev)
	for _, p := range patterns {
		got, want := FindResidue(dev, p), refFindResidue(img, p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FindResidue(%q) = %v, reference %v", p, got, want)
		}
	}
	if got, want := FindResidueAny(dev, patterns), refFindResidueAny(img, patterns); got != want {
		t.Fatalf("FindResidueAny(%q) = %d, reference %d", patterns, got, want)
	}
}

// plant writes p into dev starting at byte offset off; it may span blocks.
func plant(t *testing.T, dev *Mem, off int, p []byte) {
	t.Helper()
	buf := make([]byte, BlockSize)
	for len(p) > 0 {
		n := uint64(off / BlockSize)
		if err := dev.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		k := copy(buf[off%BlockSize:], p)
		if err := dev.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		p, off = p[k:], off+k
	}
}

func TestFindResidueEdgeCases(t *testing.T) {
	const nblocks = 3
	end := nblocks * BlockSize
	cases := []struct {
		name     string
		plants   map[int]string
		patterns []string
		want     [][]uint64 // FindResidue per pattern
		wantAny  int
	}{
		{
			name:     "shared first byte",
			plants:   map[int]string{10: "sx-a-1", 5000: "sx-a-2", 9000: "sx-a-1"},
			patterns: []string{"sx-a-1", "sx-a-2", "sx-a-3"},
			want:     [][]uint64{{0, 2}, {1}, nil},
			wantAny:  3,
		},
		{
			name:     "distinct first bytes",
			plants:   map[int]string{10: "alpha", 20: "beta", 4200: "gamma"},
			patterns: []string{"alpha", "beta", "gamma", "delta"},
			want:     [][]uint64{{0}, {0}, {1}, nil},
			wantAny:  3,
		},
		{
			name:     "zero first byte",
			plants:   map[int]string{4100: "\x01\x02", 8500: "\x01\x02"},
			patterns: []string{"\x00\x01\x02"},
			want:     [][]uint64{{1, 2}},
			wantAny:  2,
		},
		{
			name:     "spans a block boundary and ends the device",
			plants:   map[int]string{BlockSize - 3: "SECRET", end - 6: "SECRET"},
			patterns: []string{"SECRET", "T"},
			want:     [][]uint64{{0, 2}, {1, 2}},
			wantAny:  4,
		},
		{
			name:     "runs on into never-written blocks",
			plants:   map[int]string{BlockSize - 2: "ab"},
			patterns: []string{"ab\x00\x00", "\x00\x00", "b\x00"},
			want:     [][]uint64{{0}, {0, 1, 2}, {0}},
			wantAny:  5,
		},
		{
			name:     "periodic overlap and duplicates",
			plants:   map[int]string{BlockSize - 2: "aaaa", 9000: "aaaa"},
			patterns: []string{"aa", "aa", "aaa"},
			want:     [][]uint64{{0, 1, 2}, {0, 1, 2}, {0, 2}},
			wantAny:  8,
		},
		{
			name:     "longer than the device, nil and empty",
			plants:   map[int]string{0: "x"},
			patterns: []string{strings.Repeat("x", end+1), "", "x"},
			want:     [][]uint64{nil, nil, {0}},
			wantAny:  1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := MustMem(nblocks)
			for off, p := range tc.plants {
				plant(t, dev, off, []byte(p))
			}
			patterns := make([][]byte, len(tc.patterns))
			for i, p := range tc.patterns {
				patterns[i] = []byte(p)
			}
			for i, p := range patterns {
				if got := FindResidue(dev, p); !reflect.DeepEqual(got, tc.want[i]) {
					t.Fatalf("FindResidue(%q) = %v, want %v", p, got, tc.want[i])
				}
			}
			if got := FindResidueAny(dev, patterns); got != tc.wantAny {
				t.Fatalf("FindResidueAny = %d, want %d", got, tc.wantAny)
			}
			checkAgainstRef(t, dev, append(patterns, nil))
		})
	}
}

// TestFindResidueMatchesReference is the differential test: on seeded
// random images — zero blocks, random "ciphertext" blocks and blocks over a
// tiny alphabet that makes partial and overlapping matches common — with
// patterns planted anywhere, including across block boundaries and at the
// device's last byte, the kernel must agree with the byte-loop reference.
func TestFindResidueMatchesReference(t *testing.T) {
	rng := xrand.New(14)
	alphabet := []byte("\x00sx-ab")
	word := func(n int) []byte {
		w := make([]byte, n)
		for i := range w {
			w[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return w
	}
	for trial := 0; trial < 200; trial++ {
		nblocks := uint64(1 + rng.Intn(4))
		dev := MustMem(nblocks)
		buf := make([]byte, BlockSize)
		for n := uint64(0); n < nblocks; n++ {
			switch rng.Intn(3) {
			case 0:
				continue // stays zero
			case 1:
				rng.Bytes(buf)
			case 2:
				copy(buf, word(BlockSize))
			}
			if err := dev.WriteBlock(n, buf); err != nil {
				t.Fatal(err)
			}
		}
		var patterns [][]byte
		for k := rng.Intn(12); k >= 0; k-- {
			var p []byte
			switch rng.Intn(6) {
			case 0:
				p = append([]byte("sx-"), word(rng.Intn(6))...)
			case 1:
				p = word(1 + rng.Intn(4))
			case 2:
				p = make([]byte, rng.Intn(3)) // nil, or zero bytes
			case 3:
				if len(patterns) > 0 {
					p = xrand.Pick(rng, patterns) // duplicate
				}
			case 4:
				p = word(int(nblocks)*BlockSize + 1 + rng.Intn(8))
			case 5:
				p = word(2 + rng.Intn(40))
			}
			patterns = append(patterns, p)
		}
		end := int(nblocks) * BlockSize
		for _, p := range patterns {
			if len(p) == 0 || len(p) > end {
				continue
			}
			plant(t, dev, rng.Intn(end-len(p)+1), p)
			if rng.Bool(0.3) {
				plant(t, dev, end-len(p), p)
			}
		}
		checkAgainstRef(t, dev, patterns)
	}
}

// BenchmarkFindResidueAny scans a 64 MiB image, mostly zero blocks with
// random "ciphertext" blocks, for 64 workload-style secrets sharing the
// "sx-" prefix, as the post-run regulator check does.
func BenchmarkFindResidueAny(b *testing.B) {
	const nblocks = 64 << 20 / BlockSize
	dev := MustMem(nblocks)
	rng := xrand.New(1)
	buf := make([]byte, BlockSize)
	for n := uint64(0); n < nblocks; n += 4 {
		rng.Bytes(buf)
		if err := dev.WriteBlock(n, buf); err != nil {
			b.Fatal(err)
		}
	}
	patterns := make([][]byte, 64)
	for i := range patterns {
		patterns[i] = []byte(fmt.Sprintf("sx-bench-secret-%03d", i))
	}
	b.SetBytes(nblocks * BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := FindResidueAny(dev, patterns); hits != 0 {
			b.Fatalf("FindResidueAny = %d on an image without secrets", hits)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	dev := MustMem(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, BlockSize)
			for i := 0; i < 100; i++ {
				n := uint64((w*100 + i) % 64)
				buf[0] = byte(w)
				if err := dev.WriteBlock(n, buf); err != nil {
					t.Errorf("WriteBlock: %v", err)
					return
				}
				if err := dev.ReadBlock(n, buf); err != nil {
					t.Errorf("ReadBlock: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := dev.Stats()
	if s.Reads != 800 || s.Writes != 800 {
		t.Fatalf("concurrent stats = %+v, want 800/800", s)
	}
}

func TestFaultyReadErrors(t *testing.T) {
	dev := MustMem(4)
	f := NewFaulty(dev, xrand.New(1), 1.0, 0)
	buf := make([]byte, BlockSize)
	if err := f.ReadBlock(0, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("ReadBlock with p=1 err = %v, want ErrIO", err)
	}
	re, tw := f.InjectedFaults()
	if re != 1 || tw != 0 {
		t.Fatalf("InjectedFaults = %d,%d want 1,0", re, tw)
	}
}

func TestFaultyTornWrite(t *testing.T) {
	dev := MustMem(4)
	f := NewFaulty(dev, xrand.New(1), 0, 1.0)
	in := make([]byte, BlockSize)
	for i := range in {
		in[i] = 0xAB
	}
	if err := f.WriteBlock(0, in); err != nil {
		t.Fatalf("torn WriteBlock: %v", err)
	}
	out := make([]byte, BlockSize)
	if err := dev.ReadBlock(0, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < BlockSize/2; i++ {
		if out[i] != 0xAB {
			t.Fatalf("first half byte %d = %x, want AB", i, out[i])
		}
	}
	for i := BlockSize / 2; i < BlockSize; i++ {
		if out[i] != 0 {
			t.Fatalf("second half byte %d = %x, want 00 (old contents)", i, out[i])
		}
	}
}

func TestFaultyZeroProbIsTransparent(t *testing.T) {
	dev := MustMem(4)
	f := NewFaulty(dev, xrand.New(1), 0, 0)
	in := make([]byte, BlockSize)
	in[17] = 42
	if err := f.WriteBlock(1, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, BlockSize)
	if err := f.ReadBlock(1, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("fault-free wrapper altered data")
	}
}

func TestRoundTripProperty(t *testing.T) {
	dev := MustMem(16)
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(blockSeed uint8, payload []byte) bool {
		n := uint64(blockSeed) % 16
		in := make([]byte, BlockSize)
		copy(in, payload)
		if err := dev.WriteBlock(n, in); err != nil {
			return false
		}
		out := make([]byte, BlockSize)
		if err := dev.ReadBlock(n, out); err != nil {
			return false
		}
		return bytes.Equal(in, out)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
