package prefetch_test

import (
	"testing"

	"github.com/bertisim/berti/internal/prefetch"
)

func TestRegistryPopulated(t *testing.T) {
	want := []string{"berti", "ip-stride", "mlop", "ipcp", "bop", "next-line",
		"spp", "spp-ppf", "bingo", "ipcp-l2", "misb", "vldp"}
	for _, name := range want {
		e, ok := prefetch.ByName(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		pf := e.New()
		if pf.Name() == "" {
			t.Fatalf("%q has empty Name()", name)
		}
		if pf2 := e.New(); pf2 == pf {
			t.Fatalf("%q factory must build fresh instances", name)
		}
	}
}

func TestAllSorted(t *testing.T) {
	all := prefetch.All()
	if len(all) < 10 {
		t.Fatalf("registry too small: %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Level > b.Level || (a.Level == b.Level && a.Name >= b.Name) {
			t.Fatalf("not sorted by level then name: %q before %q", a.Name, b.Name)
		}
	}
}

func TestPageHelpers(t *testing.T) {
	if prefetch.PageOf(130) != 2 {
		t.Fatal("PageOf wrong")
	}
	if prefetch.OffsetOf(130) != 2 {
		t.Fatal("OffsetOf wrong")
	}
	if !prefetch.SamePage(128, 191) || prefetch.SamePage(191, 192) {
		t.Fatal("SamePage wrong")
	}
}
