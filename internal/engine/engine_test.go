package engine

import (
	"runtime"
	"testing"
)

func TestEffectiveWorkers(t *testing.T) {
	if got := (Config{}).EffectiveWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero Config: EffectiveWorkers() = %d, want GOMAXPROCS", got)
	}
	if got := (Config{Workers: 3}).EffectiveWorkers(); got != 3 {
		t.Errorf("Workers=3: EffectiveWorkers() = %d", got)
	}
	if got := (Config{Workers: -1}).EffectiveWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers=-1: EffectiveWorkers() = %d, want GOMAXPROCS", got)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Pairs, Batch, Hybrid} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if k, err := ParseKind(" Hybrid "); err != nil || k != Hybrid {
		t.Errorf("ParseKind(\" Hybrid \") = %v, %v", k, err)
	}
	for _, bad := range []string{"gpu", "allpairs"} {
		if _, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) should fail", bad)
		}
	}
	if got := Kind(42).String(); got != "Kind(42)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}
