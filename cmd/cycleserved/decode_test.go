package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/service"
)

// FuzzDecodeBody checks the one-pass decode of bodies that may carry an
// inline graph against DecodeStrict of the whole body, on both routes
// that take one (POST /v1/detect's WireRequest, create is false, and
// POST /v1/corpus/{name}'s wireCorpusCreate): both must accept or
// reject alike, with the same error, and decode equal values.
func FuzzDecodeBody(f *testing.F) {
	const g = `{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`
	for _, seed := range []string{
		// The benchmark's shapes: inline misses, det bodies, uploads.
		`{"algo":"even","k":2,"graph":` + g + `,"seed":7,"iterations":12,"trace":true}`,
		`{"algo":"det","k":2,"graph":` + g + `}`,
		`{"graph":` + g,
		`{"graph":` + g + `}`,
		`{"algo":"det","k":3,"corpus":"hit-0"}`,
		`{"spec":"pg:7","seed":3}`,
		`{"graph":` + g + `,"spec":"pg:7"}`,
		" \t{ \"graph\" : " + g + " , \"algo\" : \"det\" , \"k\" : 2 }\r\n",
		// Case-folded, repeated or escaped graph keys.
		`{"Graph":` + g + `}`,
		`{"graph":` + g + `,"GRAPH":{"n":9}}`,
		`{"gRaph":1,"graph":` + g + `}`,
		`{"graph":` + g + `,"graph":{"n":9}}`,
		`{"graph":` + g + `}`,
		`{"graphs":` + g + `}`,
		// Escapes, unknown keys and non-ASCII folds in the other members.
		`{"graph":{"n":1,"edges":[[0,1]]},"algo":"e\"v\\en","k":2}`,
		`{"algo":"\\","graph":` + g + `}`,
		`{"graph":` + g + `,"bogus":1}`,
		`{"graph":` + g + `,"ſpec":"pg:7"}`,
		`{"graph":` + g + `,"k":1e400}`,
		`{"k":2,"graph":` + g + `,"seed":-1}`,
		// Trailing data and broken structure around the graph member.
		`{"graph":` + g + `} trailing`,
		`{"graph":` + g + `}{"k":1}`,
		`{"graph":` + g + `,}`,
		`{,"graph":` + g + `}`,
		`{"algo":"x" "graph":` + g + `}`,
		`{"graph":` + g + ` "k":2}`,
		`{"graph":{"n":1,"edges":[[0,1]]`,
		// Nested junk and non-canonical graphs.
		`{"algo":[1,{"x":"]"}],"graph":` + g + `}`,
		`{"seed":{"graph":` + g + `},"graph":` + g + `}`,
		`[{"graph":` + g + `}]`,
		`{"graph":null,"algo":"det"}`,
		`{"graph":{"N":2}}`,
		`{"graph":{"n":2,"edges":[[0,1.0]]}}`,
		`{}`, `null`, ``,
	} {
		f.Add(false, []byte(seed))
		f.Add(true, []byte(seed))
	}
	f.Fuzz(func(t *testing.T, create bool, body []byte) {
		if create {
			var one, whole wireCorpusCreate
			sameDecode(t, body, &one, &one.Graph, &whole)
			return
		}
		var one, whole service.WireRequest
		sameDecode(t, body, &one, &one.Graph, &whole)
	})
}

// sameDecode decodes body one pass into one and with DecodeStrict into
// whole, and checks that both agree. decodeBody recycles the buffer it
// read a body into, so the one-pass decode reads a copy that is then
// overwritten: a decoded value that kept any of its bytes would differ.
func sameDecode[T any](t *testing.T, body []byte, one *T, graph **service.WireGraph, whole *T) {
	t.Helper()
	errWhole := service.DecodeStrict(bytes.NewReader(body), whole)
	buf := bytes.Clone(body)
	errOne := service.DecodeGraphBody(buf, one, graph)
	for i := range buf {
		buf[i] = '0'
	}
	if fmt.Sprint(errOne) != fmt.Sprint(errWhole) {
		t.Fatalf("%q: one-pass error %v, DecodeStrict %v", body, errOne, errWhole)
	}
	if errWhole == nil && !reflect.DeepEqual(one, whole) {
		t.Fatalf("%q: one-pass decoded %+v, DecodeStrict %+v", body, *one, *whole)
	}
}

// BenchmarkDecodeBody is decodeBody on the benchmark's detect bodies: a
// corpus reference, which takes the whole-body fallback, and a
// 1000-node inline graph, which takes the one-pass path.
func BenchmarkDecodeBody(b *testing.B) {
	g, _, err := graph.PlantedLight(1000, 4, 1.5, graph.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	inline, err := json.Marshal(service.WireRequest{Algo: "even", K: 2, Graph: &service.WireGraph{N: g.NumNodes(), Edges: g.Edges()}, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"corpus", []byte(`{"algo":"det","k":3,"corpus":"hit-0"}`)},
		{"inline", inline},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			var rd bytes.Reader
			r := httptest.NewRequest(http.MethodPost, "/v1/detect", nil)
			for b.Loop() {
				rd.Reset(bc.body)
				r.Body = io.NopCloser(&rd)
				var wire service.WireRequest
				if !decodeBody(w, r, &wire, &wire.Graph) {
					b.Fatal(w.Body.String())
				}
			}
		})
	}
}
