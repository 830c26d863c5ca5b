package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// referenceDecode is the decode WireGraph.UnmarshalJSON must agree with:
// encoding/json's reflective decode of the same fields, unknown fields
// disallowed, with nothing but whitespace after the value.
func referenceDecode(data []byte) (WireGraph, bool) {
	var wg wireGraphFields
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wg); err != nil {
		return WireGraph{}, false
	}
	if len(bytes.Trim(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return WireGraph{}, false
	}
	return WireGraph(wg), true
}

// FuzzWireGraph checks the wire graph decoder against the reflective
// decode: for every input, called directly or through a json.Decoder
// (which validates the syntax first), it accepts exactly when the
// reference accepts, and then to an equal WireGraph.
func FuzzWireGraph(f *testing.F) {
	for _, seed := range []string{
		`{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`,
		`{"edges":[[0,1]],"n":2}`,
		`{"N":3,"EDGES":[[0,1],[1,2]]}`, // case-folded keys: accepted
		`{"n":3,"Edges":[[0,1]]}`,
		`{"n":3,"edges":[[0,1]],"extra":1}`, // unknown key: rejected
		`{"n":1.5}`,
		`{"n":2.0,"edges":[]}`,
		`{"n":1e2}`,
		`{"edges":[[1e0,2]]}`,
		`{"edges":[[0.5,2]]}`,
		`{"n":null,"edges":null}`,
		`null`,
		`{"edges":[null,[1,2]]}`,
		`{"edges":[[null,1]]}`,
		`{"edges":[[2147483647,-2147483648]]}`,
		`{"edges":[[2147483648,0]]}`,
		`{"edges":[[-2147483649,0]]}`,
		`{"n":9223372036854775807}`,
		`{"n":9223372036854775808}`,
		`{"n":-9223372036854775808}`,
		" \t{ \"n\" : 2 ,\n\"edges\" : [ [ 0 , 1 ] , [1,0] ] } \r\n",
		`{"edges":[[1,2,3]]}`,
		`{"edges":[[1]]}`,
		`{"edges":[[]]}`,
		`{"n":1,"n":2}`,
		`{"edges":[[0,1]],"edges":[[2,3]]}`,
		`{"n":2}`,
		`{"n":01}`,
		`{"n":-0}`,
		`{"n":-}`,
		`{}`,
		`{"edges":[]}`,
		`{"n":2} junk`,
		`{"n":2}{"n":3}`,
		`{"n":"2"}`,
		`{"n":true}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, ok := referenceDecode(data)
		var direct WireGraph
		err := direct.UnmarshalJSON(data)
		if (err == nil) != ok {
			t.Fatalf("UnmarshalJSON(%q) error %v, reference accepts: %v", data, err, ok)
		}
		if ok && !reflect.DeepEqual(direct, want) {
			t.Fatalf("UnmarshalJSON(%q) = %+v, reference %+v", data, direct, want)
		}
		var viaDecoder WireGraph
		err = DecodeStrict(bytes.NewReader(data), &viaDecoder)
		if (err == nil) != ok {
			t.Fatalf("DecodeStrict(%q) error %v, reference accepts: %v", data, err, ok)
		}
		if ok && !reflect.DeepEqual(viaDecoder, want) {
			t.Fatalf("DecodeStrict(%q) = %+v, reference %+v", data, viaDecoder, want)
		}
	})
}

// TestWireGraphFastPathTaken pins that the canonical form a client
// sends never reaches the reflective decode: a fast-path parse leaves a
// sentinel field value the fallback would have reset.
func TestWireGraphFastPathTaken(t *testing.T) {
	wg := WireGraph{N: 7}
	p := wireParser{data: []byte(`{"edges":[[0,1],[1,2]]}`)}
	if !p.graph(&wg) {
		t.Fatal("canonical graph took the fallback")
	}
	if want := (WireGraph{N: 7, Edges: [][2]graph.NodeID{{0, 1}, {1, 2}}}); !reflect.DeepEqual(wg, want) {
		t.Fatalf("parsed %+v, want %+v", wg, want)
	}
	var req WireRequest
	body := `{"algo":"even","k":2,"graph":{"n":3,"edges":[[0,1],[1,2],[2,0]]}}`
	if err := DecodeStrict(strings.NewReader(body), &req); err != nil {
		t.Fatal(err)
	}
	if req.Graph == nil || req.Graph.N != 3 || len(req.Graph.Edges) != 3 {
		t.Fatalf("decoded graph %+v", req.Graph)
	}
}

// BenchmarkWireGraphDecode compares the fast path with the reflective
// decode on a benchmark-sized inline graph.
func BenchmarkWireGraphDecode(b *testing.B) {
	g, _, err := graph.PlantedLight(1000, 4, 1.5, graph.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(WireGraph{N: g.NumNodes(), Edges: g.Edges()})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var wg WireGraph
			if err := DecodeStrict(bytes.NewReader(body), &wg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var wg wireGraphFields
			if err := DecodeStrict(bytes.NewReader(body), &wg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
