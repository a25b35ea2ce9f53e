package metrics

import (
	"sync"
	"testing"
)

func TestCounterRegistry(t *testing.T) {
	a := GetCounter("test.counters.a")
	if GetCounter("test.counters.a") != a {
		t.Fatal("same name returned a different counter")
	}
	for i := 0; i < 5; i++ {
		a.Inc()
	}
	if a.Value() != 5 {
		t.Fatalf("value %d, want 5", a.Value())
	}
	found := false
	for _, s := range Counters() {
		if s.Name == "test.counters.a" && s.Value == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("snapshot missing counter")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := GetCounter("test.counters.concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("value %d, want 8000", c.Value())
	}
}
