package plan

import "testing"

func TestWorkerRanges(t *testing.T) {
	ranges, err := WorkerRanges(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	if len(ranges) != len(want) {
		t.Fatalf("got %v, want %v", ranges, want)
	}
	for i := range want {
		if ranges[i] != want[i] {
			t.Fatalf("got %v, want %v", ranges, want)
		}
	}
	if _, err := WorkerRanges(3, 4); err == nil {
		t.Fatal("WorkerRanges(3, 4) accepted more workers than ranks")
	}
	if _, err := WorkerRanges(8, 0); err == nil {
		t.Fatal("WorkerRanges(8, 0) accepted zero workers")
	}
}
