package smrtest

import (
	"reflect"
	"testing"
)

// cacheLine is the cache-line size the layout checks assume (amd64 and
// arm64 alike).
const cacheLine = 64

// OwnLine fails t unless field of struct type typ is the only field on
// every cache line it touches. Blank (_) fields are padding and do not
// count. Lines are counted from the start of the struct: the Go heap
// does not promise a struct 64-byte alignment, so this checks the layout
// the code controls, not where a given allocation's lines fall.
func OwnLine(t testing.TB, typ reflect.Type, field string) {
	t.Helper()
	f, ok := typ.FieldByName(field)
	if !ok {
		t.Fatalf("%s has no field %s", typ, field)
	}
	lo, hi := lines(f)
	for i := range typ.NumField() {
		g := typ.Field(i)
		if g.Name == "_" || g.Name == field {
			continue
		}
		if glo, ghi := lines(g); glo <= hi && lo <= ghi {
			t.Errorf("%s.%s (bytes %d-%d) shares a cache line with %s (bytes %d-%d)",
				typ, field, f.Offset, f.Offset+f.Type.Size()-1,
				g.Name, g.Offset, g.Offset+g.Type.Size()-1)
		}
	}
}

// lines returns the first and last cache line, counted from the start of
// the struct, that field f occupies.
func lines(f reflect.StructField) (lo, hi uintptr) {
	return f.Offset / cacheLine, (f.Offset + f.Type.Size() - 1) / cacheLine
}
