package core

import (
	"strings"
	"testing"

	"repro/internal/area"
	"repro/internal/workload"
)

// TestDesignPoints pins the design-point table: unique names and
// lower-case unique aliases, every builder labels its config with the row's
// Name and builds a valid system, and Area prices each row exactly as the
// call sites priced it by hand before the table derived it.
func TestDesignPoints(t *testing.T) {
	// The slicing flag each row was priced with wherever it was priced.
	sliced := map[string]bool{
		"TB-DOR": false, "2x-TB-DOR": false, "CP-CR": false,
		"Double-CP-CR": true, "Thr.Eff.": true, "Thr.Eff.(1net)": false,
		"Ring": false, "BaseJump": false,
	}
	names := map[string]bool{}
	aliases := map[string]bool{}
	for _, d := range DesignPoints() {
		if names[d.Name] || aliases[d.Alias] {
			t.Errorf("%s/%s: duplicate name or alias", d.Name, d.Alias)
		}
		names[d.Name], aliases[d.Alias] = true, true
		if d.Alias != strings.ToLower(d.Alias) {
			t.Errorf("alias %q is not lower-case", d.Alias)
		}
		if got, ok := DesignPointNamed(d.Name); !ok || got.Alias != d.Alias {
			t.Errorf("DesignPointNamed(%q) = %+v, %v", d.Name, got, ok)
		}
		for _, p := range []workload.Profile{quickProfile("LL"), quickProfile("HH")} {
			cfg := d.Build(p)
			if cfg.Name != d.Name {
				t.Errorf("%s builds a config named %q", d.Name, cfg.Name)
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s: Validate: %v", d.Name, err)
			}
			if _, err := NewSystem(cfg); err != nil {
				t.Errorf("%s: NewSystem: %v", d.Name, err)
			}
		}
		cfg := d.Build(quickProfile("LL"))
		if s, ok := sliced[d.Name]; ok {
			if got, want := cfg.Area(), area.FromConfig(cfg.Noc, s); got != want {
				t.Errorf("%s: Area() = %+v, want %+v", d.Name, got, want)
			}
		}
	}
	if len(names) != 12 {
		t.Errorf("%d design points, want 12", len(names))
	}
	if _, ok := DesignPointNamed("nope"); ok {
		t.Error("unknown design point found")
	}
	p := quickProfile("LL")
	if a := Perfect(p).Area(); a != (area.NetworkArea{}) {
		t.Errorf("Perfect area = %+v, want zero", a)
	}
	if a := IdealCapped(p, 4).Area(); a != (area.NetworkArea{}) {
		t.Errorf("IdealCapped area = %+v, want zero", a)
	}
	bal := Baseline(p).WithCheckerboardRouting().WithBalancedDoubleNetwork()
	if got, want := bal.Area(), area.FromConfig(bal.Noc, true); got != want {
		t.Errorf("balanced double area = %+v, want the sliced %+v", got, want)
	}
}
