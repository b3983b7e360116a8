package lru

import (
	"strconv"
	"sync"
	"testing"
)

func TestLRU(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted early")
	}
	c.Put("c", 3) // evicts b (a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("a lost")
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatal("replace failed")
	}
	if got := c.GetOrCreate("d", func() int { return 4 }); got != 4 {
		t.Fatal("GetOrCreate insert failed")
	}
	if got := c.GetOrCreate("d", func() int { return 5 }); got != 4 {
		t.Fatal("GetOrCreate re-created an existing entry")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.Cap() != 2 {
		t.Fatalf("cap = %d, want 2", c.Cap())
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := New[string](0)
	c.Put("a", "x")
	c.Put("b", "y")
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (capacity clamps to 1)", c.Len())
	}
}

// TestLRUPutIfRoomConcurrent: 16 goroutines released together each admit a
// distinct key into a cap-4 cache holding 3. The room check and the insert
// are one critical section, so exactly one new key is stored and none of
// the three is evicted. A present key is still replaced in a full cache.
func TestLRUPutIfRoomConcurrent(t *testing.T) {
	c := New[int](4)
	originals := []string{"a", "b", "c"}
	for i, k := range originals {
		c.Put(k, i)
	}
	const n = 16
	start := make(chan struct{})
	stored := make([]bool, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			stored[g] = c.PutIfRoom("new-"+strconv.Itoa(g), g)
		}()
	}
	close(start)
	wg.Wait()
	admitted := 0
	for g, ok := range stored {
		if _, cached := c.Get("new-" + strconv.Itoa(g)); cached != ok {
			t.Fatalf("new-%d: PutIfRoom reported %v, cached %v", g, ok, cached)
		}
		if ok {
			admitted++
		}
	}
	if admitted != 1 || c.Len() != 4 {
		t.Fatalf("%d of %d racing keys admitted, %d entries; want 1 and 4", admitted, n, c.Len())
	}
	for i, k := range originals {
		if v, ok := c.Get(k); !ok || v != i {
			t.Fatalf("original %q evicted or changed: %v, %v", k, v, ok)
		}
	}
	if !c.PutIfRoom("a", 10) || c.PutIfRoom("z", 0) {
		t.Fatal("a full cache must replace a present key and refuse a new one")
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatal("replace failed")
	}
}

// TestLRUBoundedUnderFlood drives far more unique keys than capacity and
// checks memory stays bounded — the identity-flood scenario the Verifier
// cache adopts this package for.
func TestLRUBoundedUnderFlood(t *testing.T) {
	const capacity = 64
	c := New[int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				k := "id-" + strconv.Itoa(w) + "-" + strconv.Itoa(i)
				c.GetOrCreate(k, func() int { return i })
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != capacity {
		t.Fatalf("len = %d after flood, want %d", c.Len(), capacity)
	}
}
