package benchsuite

import "testing"

// TestTableConsistent checks the suite's tables without running a body:
// entry names are unique and every gate names an existing entry and a
// known relation.
func TestTableConsistent(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Entries {
		if names[e.Name] {
			t.Errorf("duplicate entry %q", e.Name)
		}
		names[e.Name] = true
	}
	for _, g := range Gates {
		if !names[g.Bench] {
			t.Errorf("gate on %s names no entry %q", g.Metric, g.Bench)
		}
		if g.Op != "<=" && g.Op != ">=" {
			t.Errorf("gate on %s has relation %q", g.Metric, g.Op)
		}
	}
}
