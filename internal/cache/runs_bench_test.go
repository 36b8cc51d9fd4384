package cache

import (
	"strconv"
	"testing"
)

func benchPolicy(b *testing.B, name string) Policy {
	b.Helper()
	p, err := New(name, 1<<16, Config{WLRUWindow: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 1<<16; i++ {
		p.Insert(i, 256)
	}
	return p
}

// BenchmarkLRUInsertPerBlock measures steady-state insert/evict churn
// with one call per block.
func BenchmarkLRUInsertPerBlock(b *testing.B) {
	p := benchPolicy(b, "LRU")
	next := int64(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := int64(0); j < 256; j++ {
			p.Insert(next, 256)
			next++
		}
	}
}

// BenchmarkLRUInsertRun measures the same churn through InsertRun.
func BenchmarkLRUInsertRun(b *testing.B) {
	p := benchPolicy(b, "LRU")
	next := int64(1 << 16)
	sink := func(Key) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InsertRun(next, 256, 256, sink)
		next += 256
	}
}

// BenchmarkLRUAccessRun measures a 256-block hit run.
func BenchmarkLRUAccessRun(b *testing.B) {
	p := benchPolicy(b, "LRU")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AccessRun(int64(i*256)%(1<<16), 256, 256)
	}
}

// BenchmarkWLRUInsertRun measures WLRU churn (with its clean-victim
// scan) through InsertRun.
func BenchmarkWLRUInsertRun(b *testing.B) {
	p := benchPolicy(b, "WLRU")
	next := int64(1 << 16)
	sink := func(Key) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InsertRun(next, 256, 256, sink)
		next += 256
	}
}

// BenchmarkWLRUEvictDirtyTail measures one evicting Insert while the
// whole window·capacity LRU tail is dirty: the worst case for the
// victim choice, which a per-eviction scan paid in full. The clean
// cursor makes it O(1) amortized, so ns/op stays flat across
// capacities, at 0 allocs/op.
func BenchmarkWLRUEvictDirtyTail(b *testing.B) {
	for _, capacity := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(strconv.Itoa(capacity>>10)+"k", func(b *testing.B) {
			p := NewWLRU(capacity, 0.5, func(Key) bool { return true })
			// Fill, then evict once untimed: the first eviction walks
			// the cursor over the whole window, which later evictions
			// never repeat, and short CI runs would otherwise time it.
			for k := 0; k <= capacity; k++ {
				p.Insert(Key(k), 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Insert(Key(capacity+1+i), 1)
			}
		})
	}
}

// BenchmarkPolicyRunAccess measures a 256-block all-hit AccessRun on
// every policy: the monitor's steady-state read-hit cost per extent.
func BenchmarkPolicyRunAccess(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			p := benchPolicy(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.AccessRun(int64(i*256)%(1<<16), 256, 256)
			}
		})
	}
}

// BenchmarkPolicyRunInsert measures steady-state insert/evict churn
// through InsertRun on every policy (fresh 256-block runs against a full
// cache, so each run displaces 256 victims).
func BenchmarkPolicyRunInsert(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			p := benchPolicy(b, name)
			next := int64(1 << 16)
			sink := func(Key) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.InsertRun(next, 256, 256, sink)
				next += 256
			}
		})
	}
}
