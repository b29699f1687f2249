package trace

import (
	"reflect"
	"testing"
)

// TestAddMergesAllFields sets every int64 field to a distinct value
// via reflection and checks Add doubles each one — so a counter added
// to the struct but forgotten in Add fails this test automatically.
func TestAddMergesAllFields(t *testing.T) {
	var a Counters
	v := reflect.ValueOf(&a).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("unexpected field kind %v in Counters", f.Kind())
		}
		f.SetInt(int64(i + 1))
	}
	b := a
	b.Add(&a)
	w := reflect.ValueOf(&b).Elem()
	for i := 0; i < w.NumField(); i++ {
		want := int64(2 * (i + 1))
		if got := w.Field(i).Int(); got != want {
			t.Errorf("Add missed field %s: %d, want %d",
				w.Type().Field(i).Name, got, want)
		}
	}
	b.Reset()
	if b != (Counters{}) {
		t.Errorf("Reset left %+v", b)
	}
}

func TestAtomicFraction(t *testing.T) {
	var c Counters
	if c.AtomicFraction() != 0 {
		t.Error("empty fraction not zero")
	}
	c.AtomicsTaken = 25
	c.AtomicsAvoided = 75
	if c.AtomicFraction() != 0.25 {
		t.Errorf("fraction = %g", c.AtomicFraction())
	}
}
