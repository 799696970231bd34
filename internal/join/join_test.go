package join

import "testing"

func TestDecomposeDeduplicates(t *testing.T) {
	rows := []Row{{"a", "b", "c"}, {"a", "b", "d"}}
	dec := Decompose(rows)
	if len(dec.SB) != 1 {
		t.Errorf("SB has %d pairs, want 1", len(dec.SB))
	}
	if len(dec.BT) != 2 || len(dec.ST) != 2 {
		t.Errorf("BT=%d ST=%d, want 2 and 2", len(dec.BT), len(dec.ST))
	}
}
