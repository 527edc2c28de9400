package serve_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"vtmig/internal/serve"
)

// FuzzJournalEntryEncoding pins the journal's hand-written request
// encoder to encoding/json: for any request, AppendJSON must append
// exactly json.Marshal's bytes to a non-empty buffer, and where
// json.Marshal fails (a NaN or an infinity in any float) it must fail
// with the same message and hand the buffer back as it was. shape picks
// nil VMUs (0), an empty slice (1), or one or two VMUs (2, 3).
func FuzzJournalEntryEncoding(f *testing.F) {
	negZero := math.Copysign(0, -1)
	add := func(shape uint8, id1 int, a1, d1 float64, id2 int, a2, d2, dist, avail float64) {
		f.Add(shape, id1, a1, d1, id2, a2, d2, dist, avail)
	}
	add(3, 0, 5, 200, 1, 5, 100, 500, 0) // the paper's two VMUs
	add(2, 0, 12.5, 150, 0, 0, 0, 0, 0)  // both optional fields zero
	add(0, 0, 0, 0, 0, 0, 0, 0, 0)       // nil VMUs encode as null
	add(1, 0, 0, 0, 0, 0, 0, 400, 0.5)   // empty VMUs encode as []
	add(3, -1, negZero, 0, math.MinInt, -7.25, -300, negZero, negZero)
	add(3, math.MaxInt, 1, 1, 2, 1, 1, 0, 0)
	// encoding/json switches to 'e' form below 1e-6 and from 1e21; each
	// cutoff with its two neighbours, both signs.
	for _, c := range []float64{1e-6, 1e21} {
		for _, v := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, math.Inf(1))} {
			add(3, 0, v, -v, 1, -v, v, v, -v)
		}
	}
	add(3, 0, 1e-7, 1e-10, 1, 1.5e-300, 2e-5, 1e-7, 9.999e-7) // e-07 → e-7; e-10, e-300 kept
	add(3, 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, 0x1p-1023, 2.2250738585072e-308, math.SmallestNonzeroFloat64, 0x1p-1070)
	add(3, 0, math.MaxFloat64, -math.MaxFloat64, 1, 1e300, 123456789012345678901234.0, math.MaxFloat64, 1e22)
	add(3, 0, 0.1, 1.0/3, 1, 100, 1234567.125, 0.30000000000000004, 20)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		add(2, 0, bad, 1, 0, 0, 0, 0, 0)
		add(3, 0, 1, 1, 1, 1, bad, 0, 0)
		add(1, 0, 0, 0, 0, 0, 0, bad, 0)
		add(2, 0, 1, 1, 0, 0, 0, 1, bad)
	}

	f.Fuzz(func(t *testing.T, shape uint8, id1 int, a1, d1 float64, id2 int, a2, d2, dist, avail float64) {
		req := serve.QuoteRequest{DistanceM: dist, AvailableMHz: avail}
		vmus := []serve.QuoteVMU{{ID: id1, Alpha: a1, DataMB: d1}, {ID: id2, Alpha: a2, DataMB: d2}}
		switch shape % 4 {
		case 1:
			req.VMUs = vmus[:0]
		case 2:
			req.VMUs = vmus[:1]
		case 3:
			req.VMUs = vmus
		}
		prefix := []byte(`{"seq":7,"req":`)
		got, gotErr := req.AppendJSON(append([]byte(nil), prefix...))
		want, wantErr := json.Marshal(req)
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%+v: AppendJSON error %v, json.Marshal error %v", req, gotErr, wantErr)
			}
			if !bytes.Equal(got, prefix) {
				t.Fatalf("%+v: failed AppendJSON changed the buffer to %q", req, got)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("%+v: AppendJSON error %v, json.Marshal encodes %s", req, gotErr, want)
		}
		if !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("%+v:\n  AppendJSON:   %s\n  json.Marshal: %s", req, got[len(prefix):], want)
		}
	})
}

// TestJournalEncodeAllocationFree gates the journal's request encoder:
// into a buffer already grown to the entry's size it allocates nothing.
func TestJournalEncodeAllocationFree(t *testing.T) {
	req := serve.QuoteRequest{
		VMUs: []serve.QuoteVMU{
			{ID: 0, Alpha: 7.25, DataMB: 150.5},
			{ID: 1, Alpha: 12.125, DataMB: 220},
			{ID: 2, Alpha: 19.0625, DataMB: 1e-7},
		},
		DistanceM:    431.75,
		AvailableMHz: 0.375,
	}
	buf, err := req.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = req.AppendJSON(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendJSON into a grown buffer: %v allocs per entry, want 0", allocs)
	}
}

// TestJournalEncoderCoversEveryField pins the fields AppendJSON writes by
// hand, in order, with their JSON tags. A field added to QuoteRequest or
// QuoteVMU, or a changed tag, fails here until AppendJSON and
// FuzzJournalEntryEncoding's arguments follow it.
func TestJournalEncoderCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		tags []string
	}{
		{reflect.TypeFor[serve.QuoteRequest](), []string{"vmus", "distance_m,omitempty", "available_mhz,omitempty"}},
		{reflect.TypeFor[serve.QuoteVMU](), []string{"id", "alpha", "data_mb"}},
	} {
		var tags []string
		for i := range tc.typ.NumField() {
			tags = append(tags, tc.typ.Field(i).Tag.Get("json"))
		}
		if !slices.Equal(tags, tc.tags) {
			t.Errorf("%s has JSON fields %q; AppendJSON writes %q", tc.typ, tags, tc.tags)
		}
	}
}
