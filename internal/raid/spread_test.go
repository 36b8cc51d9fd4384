package raid

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSpreadLayoutFullDatasetStillBijective(t *testing.T) {
	inner := NewRAID5(8, 4, 1024, 32)
	s := NewSpreadLayout(inner, inner.DataBlocks())
	if s.Factor() != 1 {
		t.Errorf("factor = %d for full dataset, want 1", s.Factor())
	}
	// Even dense, the shuffle must remain a bijection over granule
	// slots: every granule lands on a distinct aligned slot.
	seen := make(map[int64]bool)
	for b := int64(0); b < s.DataBlocks(); b += SpreadGranule {
		a := s.spreadAddr(b)
		if a%SpreadGranule != 0 || seen[a] || a >= inner.DataBlocks() {
			t.Fatalf("granule at %d: bad slot %d", b, a)
		}
		seen[a] = true
	}
}

func TestSpreadLayoutScatters(t *testing.T) {
	inner := NewRAID5(8, 4, 1<<16, 32)
	dataset := inner.DataBlocks() / 16
	s := NewSpreadLayout(inner, dataset)
	if s.Factor() < 8 {
		t.Fatalf("factor = %d, want >= 8 for a 16x larger inner space", s.Factor())
	}
	if s.DataBlocks() != dataset {
		t.Errorf("DataBlocks = %d, want %d", s.DataBlocks(), dataset)
	}
	// Within a granule placement is contiguous in the inner space.
	a0, a1 := s.spreadAddr(0), s.spreadAddr(SpreadGranule-1)
	if a1-a0 != SpreadGranule-1 {
		t.Errorf("within-granule spread: %d..%d not contiguous", a0, a1)
	}
	// Granules scatter: every granule gets a distinct, aligned slot,
	// and placements cover a wide range of the inner space.
	granules := dataset / SpreadGranule
	seen := make(map[int64]bool)
	var maxAddr int64
	for g := int64(0); g < granules; g++ {
		addr := s.spreadAddr(g * SpreadGranule)
		if addr%SpreadGranule != 0 {
			t.Fatalf("granule %d at unaligned addr %d", g, addr)
		}
		if seen[addr] {
			t.Fatalf("granule slot %d reused", addr)
		}
		seen[addr] = true
		if addr > maxAddr {
			maxAddr = addr
		}
	}
	if maxAddr < inner.DataBlocks()/2 {
		t.Errorf("granules cluster in the low half (max addr %d of %d)",
			maxAddr, inner.DataBlocks())
	}
}

func TestSpreadLayoutInjective(t *testing.T) {
	inner := NewRAID5(4, 4, 4096, 16)
	s := NewSpreadLayout(inner, inner.DataBlocks()/4)
	seen := make(map[PBA]bool)
	for b := int64(0); b < s.DataBlocks(); b++ {
		p := s.Locate(b)
		if seen[p] {
			t.Fatalf("duplicate physical address for block %d", b)
		}
		seen[p] = true
	}
}

func TestSpreadLayoutExtentsCover(t *testing.T) {
	inner := NewRAID5(4, 4, 4096, 16)
	s := NewSpreadLayout(inner, inner.DataBlocks()/4)
	var covered int64
	prev := int64(10)
	s.ForEachExtent(10, 200, func(e Extent) {
		if e.Logical != prev {
			t.Fatalf("extent at %d, want %d", e.Logical, prev)
		}
		last := s.Locate(e.Logical + e.Count - 1)
		if last.Disk != e.Data.Disk || last.Block != e.Data.Block+e.Count-1 {
			t.Fatalf("extent at %d not physically contiguous", e.Logical)
		}
		covered += e.Count
		prev += e.Count
	})
	if covered != 200 {
		t.Errorf("extents cover %d, want 200", covered)
	}
}

func TestSpreadLayoutParityAligns(t *testing.T) {
	inner := NewRAID5(6, 3, 4096, 16)
	s := NewSpreadLayout(inner, inner.DataBlocks()/8)
	for b := int64(0); b < s.DataBlocks(); b += 7 {
		d := s.Locate(b)
		p, ok := s.ParityOf(b)
		if !ok || p.Disk == d.Disk {
			t.Fatalf("block %d: bad parity %+v vs data %+v", b, p, d)
		}
	}
}

func TestSpreadLayoutRejectsOversizedDataset(t *testing.T) {
	inner := NewRAID5(4, 4, 128, 16)
	defer func() {
		if recover() == nil {
			t.Error("oversized dataset did not panic")
		}
	}()
	NewSpreadLayout(inner, inner.DataBlocks()+1)
}

// spreadExtentsRef is the closure-per-granule walk ForEachExtent
// replaced: the reference the bound walker must reproduce.
func spreadExtentsRef(s *SpreadLayout, block, count int64) []Extent {
	var out []Extent
	for count > 0 {
		inGranule := SpreadGranule - block%SpreadGranule
		if inGranule > count {
			inGranule = count
		}
		base := block
		s.inner.ForEachExtent(s.spreadAddr(block), inGranule, func(e Extent) {
			e.Logical = base + (e.Logical - s.spreadAddr(base))
			out = append(out, e)
		})
		block += inGranule
		count -= inGranule
	}
	return out
}

// TestSpreadWalkerMatchesClosureWalk checks the bound walker against
// the closure reference over random runs on RAID-5 and RAID-6 inners,
// including a walk of another run re-entered from inside fn, and pins
// the walk at zero allocations.
func TestSpreadWalkerMatchesClosureWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, inner := range map[string]Layout{
		"raid5": NewRAID5(5, 5, 4096, 16),
		"raid6": NewRAID6(6, 6, 4096, 8),
	} {
		s := NewSpreadLayout(inner, inner.DataBlocks()/3)
		run := func() (int64, int64) {
			count := 1 + rng.Int63n(5*SpreadGranule)
			return rng.Int63n(s.DataBlocks() - count), count
		}
		for i := 0; i < 300; i++ {
			block, count := run()
			iblock, icount := run()
			var got, inner []Extent
			s.ForEachExtent(block, count, func(e Extent) {
				if len(got) == 0 {
					s.ForEachExtent(iblock, icount, func(e Extent) { inner = append(inner, e) })
				}
				got = append(got, e)
			})
			if want := spreadExtentsRef(s, block, count); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s [%d,+%d): walker emitted\n%+v\nwant\n%+v", name, block, count, got, want)
			}
			if want := spreadExtentsRef(s, iblock, icount); !reflect.DeepEqual(inner, want) {
				t.Fatalf("%s re-entered [%d,+%d): walker emitted\n%+v\nwant\n%+v", name, iblock, icount, inner, want)
			}
		}
		var n int64
		fn := func(e Extent) { n += e.Count }
		if allocs := testing.AllocsPerRun(100, func() { s.ForEachExtent(100, 4*SpreadGranule, fn) }); allocs != 0 {
			t.Fatalf("%s: walk allocated %.1f times, want 0", name, allocs)
		}
	}
}
