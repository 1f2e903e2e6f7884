package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// scribble writes pseudo-random lines into d through its public write path.
func scribble(d *DRAM, rng *rand.Rand, writes int) {
	line := make([]byte, 32)
	for i := 0; i < writes; i++ {
		rng.Read(line)
		addr := uint32(rng.Intn(int(d.Size())-len(line))) &^ 31
		d.WriteLine(addr, line)
	}
}

// contents returns d's full content.
func contents(d *DRAM) []byte { return d.PeekBytes(0, d.Size()) }

// refHashes fingerprints a flat image page by page, a short last page
// padded with zeros.
func refHashes(img []byte) []uint64 {
	var out []uint64
	for p := 0; p < len(img); p += PageBytes {
		var pg page
		copy(pg[:], img[p:])
		out = append(out, pageHash(&pg))
	}
	return out
}

// refFold folds a flat image's page fingerprints like FoldHashes.
func refFold(img []byte) uint64 {
	h := NewHasher()
	for _, v := range refHashes(img) {
		h.Word(v)
	}
	return h.Sum()
}

// dramFold returns the fold of d's page fingerprints.
func dramFold(d *DRAM) uint64 {
	h := NewHasher()
	d.FoldHashes(h)
	return h.Sum()
}

// imageHashes returns an image's memoised page fingerprints.
func imageHashes(img *Image) []uint64 {
	var out []uint64
	for p := range numPages(img.size) {
		out = append(out, img.chunks[p/chunkPages].hash[p%chunkPages])
	}
	return out
}

// imageBytes returns an image's full content.
func imageBytes(img *Image) []byte {
	var out []byte
	for p := range numPages(img.size) {
		out = append(out, img.page(p)[:]...)
	}
	return out[:img.size]
}

// TestRestorePagesBitIdentity pins the restore contract: whatever
// sequence of restores and interleaved writes runs — lines, words that
// straddle page boundaries, the first and last bytes of memory, whole
// images — a restore leaves exactly the frozen content behind, from the
// restore address on, and never changes a frozen image.
func TestRestorePagesBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dram := NewDRAM(64 * PageBytes)
	scribble(dram, rng, 150)
	imgA := dram.Freeze()
	wantA := contents(dram)
	scribble(dram, rng, 60)
	dram.Poke(PageBytes-2, rng.Uint32()) // straddles pages 0 and 1
	imgB := dram.Freeze()
	wantB := contents(dram)

	line := make([]byte, 32)
	for i := range line {
		line[i] = 0xA5
	}
	for round, img := range []*Image{imgA, imgA, imgB, imgB, imgA, imgB} {
		want := wantA
		if img == imgB {
			want = wantB
		}
		dram.Restore(img, 0)
		if !bytes.Equal(contents(dram), want) {
			t.Fatalf("round %d: restored content differs from the frozen image", round)
		}
		// Dirty every write path before the next restore.
		scribble(dram, rng, 30)
		dram.WriteLine(0, line)
		dram.WriteLine(dram.Size()-32, line)
		dram.Poke(2*PageBytes-2, rng.Uint32())
		if round == 3 {
			full := make([]byte, dram.Size())
			rng.Read(full)
			if err := dram.LoadImage(0, full); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(imageBytes(imgA), wantA) || !bytes.Equal(imageBytes(imgB), wantB) {
		t.Fatal("writes after a restore changed a frozen image")
	}

	// A partial restore replaces only the pages from its address on.
	dram.Restore(imgA, 0)
	dram.Poke(0, 0xDEADBEEF)
	dram.Restore(imgB, 32*PageBytes)
	got := contents(dram)
	if got[0] != 0xEF || !bytes.Equal(got[4:32*PageBytes], wantA[4:32*PageBytes]) ||
		!bytes.Equal(got[32*PageBytes:], wantB[32*PageBytes:]) {
		t.Fatal("partial restore touched pages below its address or missed pages above")
	}
}

// TestConvergedPagesMatchesExact is the correctness property the ladder's
// rung-crossing check rests on: the page-identity-then-fingerprint verdict
// must agree with the exact every-byte comparison (modulo page-hash
// collisions, which the fixed seed does not hit).
func TestConvergedPagesMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dram := NewDRAM(16 * PageBytes)
	scribble(dram, rng, 100)
	base := dram.Freeze()
	scribble(dram, rng, 60)
	golden := dram.Freeze()

	check := func(what string) {
		t.Helper()
		if inc, full := dram.ConvergedPages(golden), dram.EqualPages(golden); inc != full {
			t.Fatalf("%s: page verdict %v != exact verdict %v", what, inc, full)
		}
	}
	dram.Restore(golden, 0)
	check("restored to golden")
	if !dram.ConvergedPages(golden) {
		t.Fatal("restored-to-golden state must report converged")
	}
	// A flip inside a private page: the rehash catches it.
	dram.Poke(0, dram.Peek(0)^1)
	check("flip inside a private page")
	// Writing a page's own content back makes it private but equal.
	dram.Poke(0, dram.Peek(0)^1)
	check("flip reverted")
	if !dram.ConvergedPages(golden) {
		t.Fatal("reverted flip must report converged")
	}
	// Shared pages of another image compare by their memoised hashes.
	dram.Restore(base, 0)
	check("restored to base")
	if dram.ConvergedPages(golden) {
		t.Fatal("base content must not report converged to golden")
	}
	for i := 0; i < 50; i++ {
		switch {
		case i%7 == 0:
			dram.Restore(golden, 0)
		case i%11 == 0:
			dram.Restore(base, 0)
		}
		scribble(dram, rng, rng.Intn(8))
		check("randomized sweep")
	}
}

// TestConvergedPagesWithImage checks convergence while a restored image is
// in place: its content must not count as converged to an earlier image,
// and writing the earlier content back page by page must.
func TestConvergedPagesWithImage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dram := NewDRAM(1 << 18)
	scribble(dram, rng, 100)
	base := dram.Freeze()
	baseBytes := contents(dram)
	scribble(dram, rng, 50)
	img := dram.Freeze()
	dram.Restore(img, 0)

	if dram.ConvergedPages(base) {
		t.Fatal("image content counted as converged to base")
	}
	for off := uint32(0); off < dram.Size(); off += 32 {
		dram.WriteLine(off, baseBytes[off:off+32])
	}
	if !dram.ConvergedPages(base) {
		t.Fatal("base content not detected as converged")
	}
}

// TestDirtyCaptureMatchesFullScan pins the memoised page fingerprints to
// a full scan: on every round of a randomized write workload over a
// memory with a short trailing page, FoldHashes and a fresh Freeze's
// fingerprints must equal those of the flat content.
func TestDirtyCaptureMatchesFullScan(t *testing.T) {
	dram := NewDRAM(6*PageBytes - 100)
	rng := rand.New(rand.NewSource(23))
	if dramFold(dram) != refFold(contents(dram)) {
		t.Fatal("fresh DRAM fingerprints differ from the all-zero content's")
	}
	for round := 0; round < 30; round++ {
		switch rng.Intn(4) {
		case 0:
			scribble(dram, rng, 1+rng.Intn(8))
		case 1:
			dram.Poke(uint32(1+rng.Intn(4))*PageBytes-2, rng.Uint32())
		case 2:
			dram.Poke(dram.Size()-4, rng.Uint32())
		case 3:
			dram.Freeze()
		}
		flat := contents(dram)
		if dramFold(dram) != refFold(flat) {
			t.Fatalf("round %d: FoldHashes differs from a full scan", round)
		}
		if round%5 == 0 {
			img := dram.Freeze()
			if !slices.Equal(imageHashes(img), refHashes(flat)) {
				t.Fatalf("round %d: frozen fingerprints differ from a full scan", round)
			}
			h := NewHasher()
			img.FoldHashes(h)
			if h.Sum() != refFold(flat) {
				t.Fatalf("round %d: image fold differs from a full scan", round)
			}
		}
	}
}

// TestFreezeSharesUnwrittenPages pins the copy-on-write economics: a page
// not written between two freezes is the same object in both images, a
// chunk span without writes is the same chunk, ImageBytes counts each
// page and chunk once, and restore-and-run cycles reuse the free list
// instead of allocating pages.
func TestFreezeSharesUnwrittenPages(t *testing.T) {
	dram := NewDRAM(2 * chunkPages * PageBytes)
	base := dram.Freeze()
	dram.Poke(0, 1)
	dram.Poke(5*PageBytes, 2)
	a := dram.Freeze()
	dram.Poke(5*PageBytes, 3)
	b := dram.Freeze()
	if a.page(0) != b.page(0) || a.page(5) == b.page(5) || a.page(9) != base.page(9) ||
		a.chunks[1] != base.chunks[1] || b.chunks[1] != base.chunks[1] {
		t.Fatal("freeze did not share exactly the unwritten pages and chunks")
	}
	owned, shared := ImageBytes(base, []*Image{a, b})
	if want := 3*PageBytes + 2*chunkPages*16 + 2*2*8; owned != want || shared != PageBytes {
		t.Fatalf("ImageBytes = %d owned, %d shared; want %d, %d", owned, shared, want, PageBytes)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dram.Restore(a, 0)
		dram.Poke(0, 9)
		dram.Poke(7*PageBytes, 9)
	})
	if allocs != 0 || dram.PrivatePages() != 2 {
		t.Fatalf("restore-and-write cycles allocate %v times, hold %d private pages; want 0 and 2",
			allocs, dram.PrivatePages())
	}
}

// FuzzDRAMPages drives random sequences of writes, freezes and restores
// against a flat reference memory: after every operation the DRAM's bytes
// and page fingerprints must match the reference, convergence verdicts
// must match exact comparison, and no frozen image may have changed.
func FuzzDRAMPages(f *testing.F) {
	f.Add([]byte{3, 1, 0, 4, 3, 2, 9, 9, 9, 9, 9, 4, 0, 0, 0})
	f.Add([]byte{0, 200, 17, 40, 3, 2, 255, 15, 1, 2, 3, 6, 0, 4, 5, 4, 1, 16, 3, 5, 64, 1})
	f.Add(bytes.Repeat([]byte{2, 255, 15, 7, 3}, 12))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const size = 3*PageBytes + 100
		dram := NewDRAM(size)
		ref := make([]byte, size)
		type frozen struct {
			img  *Image
			want []byte
		}
		var imgs []frozen
		next := func() uint32 {
			if len(ops) == 0 {
				return 0
			}
			v := uint32(ops[0])
			ops = ops[1:]
			return v
		}
		for len(ops) > 0 {
			op := next() % 7
			addr := (next()<<8 | next()) % size
			switch op {
			case 0: // LoadImage of a patterned run, possibly across pages
				n := min(next()*37, size-addr)
				img := make([]byte, n)
				for i := range img {
					img[i] = byte(addr) + byte(i)
				}
				if err := dram.LoadImage(addr, img); err != nil {
					t.Fatal(err)
				}
				copy(ref[addr:], img)
			case 1: // WriteLine of an aligned line
				addr = min(addr&^31, size-32)
				line := bytes.Repeat([]byte{byte(next())}, 32)
				dram.WriteLine(addr, line)
				copy(ref[addr:], line)
			case 2: // Poke, possibly straddling a page boundary
				addr = min(addr, size-4)
				v := next() * 0x01010101
				dram.Poke(addr, v)
				ref[addr], ref[addr+1], ref[addr+2], ref[addr+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			case 3:
				imgs = append(imgs, frozen{dram.Freeze(), append([]byte(nil), ref...)})
			case 4: // restore an earlier image from a page boundary on
				if len(imgs) == 0 {
					continue
				}
				fr := imgs[int(next())%len(imgs)]
				at := addr &^ (PageBytes - 1)
				dram.Restore(fr.img, at)
				copy(ref[at:], fr.want[at:])
			case 5:
				addr = min(addr&^31, size-32)
				buf := make([]byte, 32)
				if !dram.ReadLine(addr, buf) || !bytes.Equal(buf, ref[addr:addr+32]) {
					t.Fatalf("ReadLine(%#x) differs from the reference", addr)
				}
			case 6:
				n := min(next()*53, size-addr)
				if got := dram.PeekBytes(addr, n); !bytes.Equal(got, ref[addr:addr+n]) {
					t.Fatalf("PeekBytes(%#x, %d) differs from the reference", addr, n)
				}
			}
			if !bytes.Equal(contents(dram), ref) {
				t.Fatalf("op %d at %#x: content differs from the reference", op, addr)
			}
			if dramFold(dram) != refFold(ref) {
				t.Fatalf("op %d at %#x: page fingerprints differ from the reference", op, addr)
			}
			for i, fr := range imgs {
				if !bytes.Equal(imageBytes(fr.img), fr.want) || !slices.Equal(imageHashes(fr.img), refHashes(fr.want)) {
					t.Fatalf("op %d: image %d changed after freezing", op, i)
				}
				same := bytes.Equal(ref, fr.want)
				if dram.ConvergedPages(fr.img) != same || dram.EqualPages(fr.img) != same {
					t.Fatalf("op %d: convergence to image %d misjudged (equal %v)", op, i, same)
				}
			}
		}
	})
}
