package workload

import (
	"reflect"
	"testing"
	"time"
)

func TestUsers(t *testing.T) {
	got := Users(3)
	want := []string{"u00", "u01", "u02"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Users = %v", got)
	}
}

func TestWindowBounds(t *testing.T) {
	w := DefaultWindow()
	if w.FromDay() != "2003-04-21" || w.ToDay() != "2003-04-25" {
		t.Fatalf("window = %s..%s", w.FromDay(), w.ToDay())
	}
	slots := w.Slots()
	if len(slots) != w.Days*len(w.Hours) {
		t.Fatalf("slots = %d", len(slots))
	}
	if slots[0].Day != "2003-04-21" || slots[len(slots)-1].Day != "2003-04-25" {
		t.Fatalf("slot days wrong: %v .. %v", slots[0], slots[len(slots)-1])
	}
}

func TestBusyPlanReproducible(t *testing.T) {
	users := Users(5)
	w := DefaultWindow()
	a := MakeBusyPlan(users, w, 0.3, 42)
	b := MakeBusyPlan(users, w, 0.3, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed diverged")
	}
	c := MakeBusyPlan(users, w, 0.3, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds agree (suspicious)")
	}
	// Density is roughly honored.
	total, busy := 0, 0
	for _, u := range users {
		total += len(w.Slots())
		busy += len(a[u])
	}
	frac := float64(busy) / float64(total)
	if frac < 0.15 || frac > 0.45 {
		t.Fatalf("density = %f", frac)
	}
}

func TestMeetingPlansShape(t *testing.T) {
	users := Users(6)
	plans := MakeMeetingPlans(users, 10, 3, 7)
	if len(plans) != 10 {
		t.Fatalf("plans = %d", len(plans))
	}
	for _, p := range plans {
		if len(p.Participants) != 3 {
			t.Fatalf("fanout = %d", len(p.Participants))
		}
		for _, q := range p.Participants {
			if q == p.Initiator {
				t.Fatal("initiator among participants")
			}
		}
	}
	// Fanout is clamped to the population size.
	small := MakeMeetingPlans(Users(3), 2, 10, 7)
	for _, p := range small {
		if len(p.Participants) != 2 {
			t.Fatalf("clamped fanout = %d", len(p.Participants))
		}
	}
	// Reproducible.
	again := MakeMeetingPlans(users, 10, 3, 7)
	if !reflect.DeepEqual(plans, again) {
		t.Fatal("same seed diverged")
	}
}

// TestUsersPaddingScalesWithPopulation: at n >= 100 the old fixed
// "u%02d" format produced mixed-width ids (u99, u100) whose
// lexicographic order diverged from numeric order, breaking sorted
// listings. Padding must widen with the population.
func TestUsersPaddingScalesWithPopulation(t *testing.T) {
	for _, n := range []int{1, 10, 99, 100, 101, 1000, 10000} {
		ids := Users(n)
		if len(ids) != n {
			t.Fatalf("Users(%d) returned %d ids", n, len(ids))
		}
		width := len(ids[0])
		for i, id := range ids {
			if len(id) != width {
				t.Fatalf("Users(%d): mixed widths %q vs %q", n, ids[0], id)
			}
			if i > 0 && !(ids[i-1] < id) {
				t.Fatalf("Users(%d): lexicographic order broken at %q >= %q", n, ids[i-1], id)
			}
		}
	}
	// Small populations keep the legacy two-digit shape so existing
	// fixtures and goldens are untouched.
	if got := Users(5)[4]; got != "u04" {
		t.Fatalf("Users(5)[4] = %q, want u04", got)
	}
	if got := Users(1000)[7]; got != "u007" {
		t.Fatalf("Users(1000)[7] = %q, want u007", got)
	}
}

func TestZipfPickerSkewAndDeterminism(t *testing.T) {
	const n = 1000
	a := NewZipfPicker(n, 1.3, 42)
	b := NewZipfPicker(n, 1.3, 42)
	counts := make([]int, n)
	for i := 0; i < 20000; i++ {
		x, y := a.Pick(), b.Pick()
		if x != y {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, x, y)
		}
		counts[x]++
	}
	// The head must dominate the tail.
	head := counts[0] + counts[1] + counts[2]
	tail := counts[n-3] + counts[n-2] + counts[n-1]
	if head <= tail*10 {
		t.Fatalf("no skew: head %d, tail %d", head, tail)
	}
}

func TestZipfPickSetDistinctAndExcluding(t *testing.T) {
	p := NewZipfPicker(10, 1.5, 7)
	for i := 0; i < 200; i++ {
		set := p.PickSet(4, 3)
		seen := map[int]bool{}
		for _, idx := range set {
			if idx == 3 {
				t.Fatal("excluded index drawn")
			}
			if seen[idx] {
				t.Fatalf("duplicate index %d in %v", idx, set)
			}
			seen[idx] = true
		}
		if len(set) != 4 {
			t.Fatalf("set size %d, want 4", len(set))
		}
	}
	// k larger than the population clamps.
	if set := p.PickSet(99, 0); len(set) != 9 {
		t.Fatalf("clamped set size %d, want 9", len(set))
	}
}

func TestPoissonArrivalsSortedWithinHorizon(t *testing.T) {
	horizon := 8 * time.Hour
	a := PoissonArrivals(5000, horizon, 11)
	b := PoissonArrivals(5000, horizon, 11)
	for i, at := range a {
		if at < 0 || at >= horizon {
			t.Fatalf("arrival %d out of horizon: %v", i, at)
		}
		if i > 0 && at < a[i-1] {
			t.Fatalf("arrivals unsorted at %d", i)
		}
		if at != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestSkewedMeetingPlansShape(t *testing.T) {
	users := Users(500)
	plans := SkewedMeetingPlans(users, 300, 4, 1.2, 99)
	if len(plans) != 300 {
		t.Fatalf("got %d plans", len(plans))
	}
	for _, p := range plans {
		if len(p.Participants) != 4 {
			t.Fatalf("fanout %d, want 4", len(p.Participants))
		}
		for _, q := range p.Participants {
			if q == p.Initiator {
				t.Fatal("initiator drawn as participant")
			}
		}
	}
}
