package store

import (
	"sync"
	"testing"
)

func TestTableBasics(t *testing.T) {
	var tb Table[int32, string]
	if tb.Load(0) != nil || tb.Load(-1) != nil {
		t.Fatal("empty table reported a hit")
	}
	for _, k := range []int32{0, 255, 256, 1 << 20, TableLimit - 1} {
		v := "v"
		if !tb.Publish(k, &v) {
			t.Fatalf("Publish(%d) refused a covered key", k)
		}
		if got := tb.Load(k); got != &v {
			t.Fatalf("Load(%d) = %v, want the published pointer", k, got)
		}
	}
	if tb.Load(1) != nil || tb.Load(257) != nil || tb.Load(1<<20+1) != nil {
		t.Fatal("unpublished neighbor of a published key reported a hit")
	}
	for _, k := range []int32{-1, -256, TableLimit, 1<<31 - 1} {
		v := "x"
		if tb.Covers(k) || tb.Publish(k, &v) {
			t.Fatalf("key %d outside [0, TableLimit) accepted", k)
		}
		if tb.Load(k) != nil {
			t.Fatalf("refused key %d reported a hit", k)
		}
	}
}

// TestTableConcurrentPublish publishes disjoint keys spread over many pages
// from several goroutines while others read (run with -race): directory
// growth must never lose a page another writer installed, and a reader sees
// either nil or the published value.
func TestTableConcurrentPublish(t *testing.T) {
	var tb Table[int32, int32]
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int32) {
			defer wg.Done()
			for i := int32(0); i < perWriter; i++ {
				k := i*writers*37 + w // strided so writers share pages
				v := k
				tb.Publish(k, &v)
			}
		}(int32(w))
		go func(w int32) {
			defer wg.Done()
			for i := int32(0); i < perWriter; i++ {
				k := i*writers*37 + (w+1)%writers
				if p := tb.Load(k); p != nil && *p != k {
					t.Errorf("Load(%d) = %d", k, *p)
					return
				}
			}
		}(int32(w))
	}
	wg.Wait()
	for w := int32(0); w < writers; w++ {
		for i := int32(0); i < perWriter; i++ {
			k := i*writers*37 + w
			if p := tb.Load(k); p == nil || *p != k {
				t.Fatalf("key %d lost after concurrent publish", k)
			}
		}
	}
}

func TestTableClear(t *testing.T) {
	var tb Table[int32, string]
	tb.Clear(5) // empty table: no directory appears
	if tb.dir.Load() != nil {
		t.Fatal("Clear on an empty table installed a directory")
	}
	a, b := "a", "b"
	tb.Publish(3, &a)
	d := tb.dir.Load()
	tb.Clear(2*tablePageSize + 1) // untouched page inside the directory
	tb.Clear(TableLimit - 1)      // beyond the directory
	tb.Clear(-1)                  // outside the key range
	if tb.dir.Load() != d || d.pages[2].Load() != nil {
		t.Fatal("Clear of an untouched key installed a page or grew the directory")
	}
	if tb.Load(3) != &a {
		t.Fatal("clearing other keys lost a published value")
	}
	tb.Clear(3)
	if tb.Load(3) != nil {
		t.Fatal("Load after Clear returned a value")
	}
	tb.Publish(3, &b)
	if tb.Load(3) != &b {
		t.Fatal("republish after Clear not visible")
	}
}

// TestTableConcurrentClear races readers against a writer that publishes,
// clears and republishes keys (run with -race): a reader sees nil or a
// value published under that key, never another key's.
func TestTableConcurrentClear(t *testing.T) {
	var tb Table[int32, int32]
	const keys, rounds = 1024, 20
	vals := make([]int32, keys)
	for k := range vals {
		vals[k] = int32(k)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for k := int32(0); k < keys; k++ {
				tb.Publish(k*3, &vals[k])
			}
			for k := int32(r % 2); k < keys; k += 2 {
				tb.Clear(k * 3)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := int32(0); k < keys; k++ {
					if p := tb.Load(k * 3); p != nil && *p != k {
						t.Errorf("Load(%d) = %d", k*3, *p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
