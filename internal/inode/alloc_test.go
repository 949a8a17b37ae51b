package inode

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/simclock"
)

// checkLowWater asserts the allocator low-water marks: no free inode slot
// lies below freeIno and no free data block below freeBlk.
func checkLowWater(t *testing.T, fs *FS) {
	t.Helper()
	fs.metaMu.Lock()
	defer fs.metaMu.Unlock()
	for i := uint64(1); i < fs.freeIno && i < fs.sb.NInodes; i++ {
		if fs.itab[i].Mode == ModeFree {
			t.Fatalf("inode %d is free below the low-water mark %d", i, fs.freeIno)
		}
	}
	for b := fs.sb.DataStart; b < fs.freeBlk && b < fs.sb.NBlocks; b++ {
		if fs.bitmap[b/8]&(1<<(b%8)) == 0 {
			t.Fatalf("block %d is free below the low-water mark %d", b, fs.freeBlk)
		}
	}
}

// allocInode allocates a file inode and checks the marks afterwards.
func allocInode(t *testing.T, fs *FS) Ino {
	t.Helper()
	ino, err := fs.AllocInode(ModeFile, "")
	if err != nil {
		t.Fatal(err)
	}
	checkLowWater(t, fs)
	return ino
}

// TestAllocInodeLowestFreeFirst pins the inode allocation order: after
// frees, the next allocation always takes the lowest free slot.
func TestAllocInodeLowestFreeFirst(t *testing.T) {
	_, fs := newFS(t, 512)
	var inos []Ino
	for i := 0; i < 5; i++ {
		inos = append(inos, allocInode(t, fs))
	}
	for i, ino := range inos {
		if want := Ino(i + 2); ino != want { // root is ino 1
			t.Fatalf("alloc %d = %d, want %d", i, ino, want)
		}
	}
	free := func(ino Ino) {
		t.Helper()
		if err := fs.FreeInode(ino); err != nil {
			t.Fatal(err)
		}
		checkLowWater(t, fs)
	}
	free(inos[1])
	if got := allocInode(t, fs); got != inos[1] {
		t.Fatalf("after freeing %d, alloc = %d", inos[1], got)
	}
	free(inos[3])
	free(inos[0])
	for _, want := range []Ino{inos[0], inos[3], inos[4] + 1} {
		if got := allocInode(t, fs); got != want {
			t.Fatalf("alloc = %d, want %d", got, want)
		}
	}
}

// fileBlocks returns the direct block pointers of ino in use.
func fileBlocks(fs *FS, ino Ino) []uint64 {
	d := fs.loadInode(ino)
	var bs []uint64
	for _, b := range d.Direct {
		if b != 0 {
			bs = append(bs, b)
		}
	}
	return bs
}

// TestAllocBlockLowestFreeFirst pins the data-block allocation order:
// blocks released by FreeInode, Truncate or an aborted transaction are
// handed out again lowest first, before any never-used block.
func TestAllocBlockLowestFreeFirst(t *testing.T) {
	_, fs := newFS(t, 512)
	write := func(ino Ino, nblocks int) {
		t.Helper()
		if _, err := fs.WriteAt(ino, 0, make([]byte, nblocks*blockdev.BlockSize)); err != nil {
			t.Fatal(err)
		}
		checkLowWater(t, fs)
	}
	a, b := allocInode(t, fs), allocInode(t, fs)
	write(a, 3)
	write(b, 1)
	ab, bb := fileBlocks(fs, a), fileBlocks(fs, b)
	if len(ab) != 3 || len(bb) != 1 || ab[0] != fs.sb.DataStart || bb[0] != ab[2]+1 {
		t.Fatalf("initial layout a=%v b=%v, want consecutive blocks from %d", ab, bb, fs.sb.DataStart)
	}

	// Truncate releases a's last two blocks; a new file reuses them first.
	if err := fs.Truncate(a, blockdev.BlockSize); err != nil {
		t.Fatal(err)
	}
	checkLowWater(t, fs)
	c := allocInode(t, fs)
	write(c, 3)
	if got, want := fileBlocks(fs, c), []uint64{ab[1], ab[2], bb[0] + 1}; !slices.Equal(got, want) {
		t.Fatalf("after Truncate, c = %v, want %v", got, want)
	}

	// FreeInode releases the lowest block of all.
	if err := fs.FreeInode(a); err != nil {
		t.Fatal(err)
	}
	checkLowWater(t, fs)
	d := allocInode(t, fs)
	write(d, 2)
	if got, want := fileBlocks(fs, d), []uint64{ab[0], bb[0] + 2}; !slices.Equal(got, want) {
		t.Fatalf("after FreeInode, d = %v, want %v", got, want)
	}

	// An aborted transaction releases what it allocated.
	m := fs.begin()
	held, err := m.alloc()
	if err != nil {
		t.Fatal(err)
	}
	m.abort()
	checkLowWater(t, fs)
	m = fs.begin()
	if again, err := m.alloc(); err != nil || again != held {
		t.Fatalf("alloc after abort = %d, %v; want %d", again, err, held)
	}
	m.abort()
	checkLowWater(t, fs)
}

// TestAllocBlockAfterNoSpace: a write that runs out of space aborts its
// last chunk, releasing the blocks that chunk took; once the file is freed
// too, the next allocation starts again at the first data block.
func TestAllocBlockAfterNoSpace(t *testing.T) {
	dev := blockdev.MustMem(96)
	fs, err := Format(dev, Options{NInodes: 32, JournalBlocks: 16, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	free := fs.FreeBlocks()
	ino := allocInode(t, fs)
	if _, err := fs.WriteAt(ino, 0, make([]byte, 100*blockdev.BlockSize)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized write err = %v, want ErrNoSpace", err)
	}
	checkLowWater(t, fs)
	if err := fs.FreeInode(ino); err != nil {
		t.Fatal(err)
	}
	checkLowWater(t, fs)
	if got := fs.FreeBlocks(); got != free {
		t.Fatalf("free blocks = %d, want %d", got, free)
	}
	ino = allocInode(t, fs)
	if _, err := fs.WriteAt(ino, 0, make([]byte, blockdev.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if got := fileBlocks(fs, ino); len(got) != 1 || got[0] != fs.sb.DataStart {
		t.Fatalf("blocks = %v, want [%d]", got, fs.sb.DataStart)
	}
}

// TestAllocInodeRollbackLowersMark: when an allocation's commit fails, or
// its enqueue is refused by the aborted journal, the claimed slot is
// rolled back free and the low-water mark moves back down to it.
func TestAllocInodeRollbackLowersMark(t *testing.T) {
	cut := &cuttableDev{dev: blockdev.MustMem(512), budget: -1}
	fs, err := Format(cut, Options{NInodes: 64, JournalBlocks: 64, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	allocInode(t, fs)
	cut.setBudget(0)
	for i := 0; i < 2; i++ { // a failed flush, then a refused enqueue
		if _, err := fs.AllocInode(ModeFile, ""); err == nil {
			t.Fatalf("alloc %d succeeded on a dead device", i)
		}
		checkLowWater(t, fs)
		if fs.freeIno != 3 {
			t.Fatalf("after failed alloc %d, mark = %d, want 3", i, fs.freeIno)
		}
	}
}
