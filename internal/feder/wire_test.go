package feder

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"muppet"
)

// fig1 loads the walkthrough bundle and compiles the shared system.
func fig1(t testing.TB, extraPorts []int) (*muppet.System, *muppet.Bundle) {
	t.Helper()
	bundle, err := muppet.LoadFiles(
		"../../testdata/fig1/mesh.yaml",
		"../../testdata/fig1/k8s_current.yaml",
		"../../testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies, extraPorts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, bundle
}

var fig1Ports = []int{23, 10000, 12000, 14000, 16000}

// fig1Parties builds the walkthrough party pair over sys.
func fig1Parties(t testing.TB, sys *muppet.System, bundle *muppet.Bundle) (k8s, istio *muppet.Party) {
	t.Helper()
	kg, err := muppet.LoadK8sGoals("../../testdata/fig1/k8s_goals.csv")
	if err != nil {
		t.Fatal(err)
	}
	ig, err := muppet.LoadIstioGoals("../../testdata/fig1/istio_goals_revised.csv")
	if err != nil {
		t.Fatal(err)
	}
	k8s, _, err = muppet.NewK8sParty(sys, bundle.K8s, muppet.AllSoft(), kg)
	if err != nil {
		t.Fatal(err)
	}
	istio, _, err = muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), ig)
	if err != nil {
		t.Fatal(err)
	}
	return k8s, istio
}

// TestWireEnvelopeRoundTrip asserts the wire codec is a fixed point of
// the constructor simplification — decode(encode(e)) re-encodes to the
// identical message — and that a decoded envelope is solver-equivalent to
// the original (same CheckCandidate verdict).
func TestWireEnvelopeRoundTrip(t *testing.T) {
	sys, bundle := fig1(t, fig1Ports)
	k8s, istio := fig1Parties(t, sys, bundle)
	v := NewVocab(sys)

	for _, dir := range []struct {
		name      string
		recipient *muppet.Party
		sender    *muppet.Party
	}{
		{"k8s-to-istio", istio, k8s},
		{"istio-to-k8s", k8s, istio},
	} {
		t.Run(dir.name, func(t *testing.T) {
			env, err := muppet.ComputeEnvelopeCtx(context.Background(), sys, dir.recipient, []*muppet.Party{dir.sender})
			if err != nil {
				t.Fatal(err)
			}
			w1, err := v.EncodeEnvelope(env)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := v.DecodeEnvelope(w1)
			if err != nil {
				t.Fatal(err)
			}
			if dec.From != env.From || dec.To != env.To || len(dec.Clauses) != len(env.Clauses) {
				t.Fatalf("decoded header/shape differs: %s→%s %d clauses, want %s→%s %d",
					dec.From, dec.To, len(dec.Clauses), env.From, env.To, len(env.Clauses))
			}
			w2, err := v.EncodeEnvelope(dec)
			if err != nil {
				t.Fatal(err)
			}
			j1, _ := json.Marshal(w1)
			j2, _ := json.Marshal(w2)
			if string(j1) != string(j2) {
				t.Fatalf("codec is not a fixed point:\n1st %s\n2nd %s", j1, j2)
			}
			ok1, _ := muppet.CheckCandidate(sys, dir.recipient, env, true, dir.sender)
			ok2, _ := muppet.CheckCandidate(sys, dir.recipient, dec, true, dir.sender)
			if ok1 != ok2 {
				t.Fatalf("decoded envelope flips the candidate verdict: %v vs %v", ok1, ok2)
			}
		})
	}
}

func TestWireEditsRoundTrip(t *testing.T) {
	es := []muppet.Edit{
		{Party: "K8s", Knob: muppet.Knob{Policy: "cluster-default", Field: muppet.Field(1), Key: "23"}, Add: true},
		{Party: "Istio", Knob: muppet.Knob{Policy: "allow-db", Field: muppet.Field(2), Key: "backend/16000"}, Add: false},
	}
	got := DecodeEdits(EncodeEdits(es))
	if !reflect.DeepEqual(got, es) {
		t.Fatalf("edits round-trip:\n got %+v\nwant %+v", got, es)
	}
	if got := DecodeEdits(nil); len(got) != 0 {
		t.Fatalf("nil edits decode to %+v", got)
	}
}

func TestWireOfferDigest(t *testing.T) {
	base := WireOffer{
		Party: "Istio", Kind: "istio", Mode: "soft",
		Exposure:    map[string][]int{"db": {14000, 10000, 12000}},
		HasExposure: true,
	}
	reordered := base
	reordered.Exposure = map[string][]int{"db": {10000, 12000, 14000}}
	if base.Digest() != reordered.Digest() {
		t.Fatal("digest must be invariant under exposure port order")
	}
	changed := base
	changed.Exposure = map[string][]int{"db": {10000, 12000}}
	if base.Digest() == changed.Digest() {
		t.Fatal("digest must change when the exposure changes")
	}
	noExposure := WireOffer{Party: "Istio", Kind: "istio", Mode: "soft"}
	if noExposure.Digest() == base.Digest() {
		t.Fatal("nil exposure must digest differently from a concrete one")
	}
}

// TestSystemFingerprint asserts equal builds agree and drifted universes
// (an extra port atom) do not.
func TestSystemFingerprint(t *testing.T) {
	sysA, _ := fig1(t, fig1Ports)
	sysB, _ := fig1(t, fig1Ports)
	if SystemFingerprint(sysA) != SystemFingerprint(sysB) {
		t.Fatal("identical builds must fingerprint identically")
	}
	sysC, _ := fig1(t, append(append([]int{}, fig1Ports...), 999))
	if SystemFingerprint(sysA) == SystemFingerprint(sysC) {
		t.Fatal("an extra universe atom must change the fingerprint")
	}
}

// someVar is `some x` for wire variable 1.
var someVar = &Node{K: "mlt", Op: "some", C: []*Node{{K: "var", V: 1, S: "x"}}}

// Two well-formed trees whose variables escape their scope: a conjunct
// using x after the quantifier binding it, and a declaration whose domain
// is the variable it declares. Both evaluate with x unbound.
var (
	varOutOfScope = &Node{K: "nry", Op: "and", C: []*Node{
		{K: "qnt", B: true, D: []*Node{{K: "dcl", V: 1, S: "x", C: []*Node{{K: "rel", S: "Service"}}}}, C: []*Node{someVar}},
		someVar,
	}}
	varInOwnDomain = &Node{K: "qnt", B: true,
		D: []*Node{{K: "dcl", V: 1, S: "x", C: []*Node{{K: "var", V: 1, S: "x"}}}}, C: []*Node{someVar}}
)

// TestDecodeRejectsMalformed asserts every malformed wire shape surfaces
// as an error, never a panic.
func TestDecodeRejectsMalformed(t *testing.T) {
	sys, _ := fig1(t, fig1Ports)
	v := NewVocab(sys)
	cases := []struct {
		name string
		node *Node
	}{
		{"nil", nil},
		{"unknown-kind", &Node{K: "zzz"}},
		{"unknown-connective", &Node{K: "nry", Op: "xor"}},
		{"unknown-relation", &Node{K: "mlt", Op: "some", C: []*Node{{K: "rel", S: "NoSuchRel"}}}},
		{"unknown-atom", &Node{K: "mlt", Op: "some", C: []*Node{{K: "cst", A: 1, TS: [][]string{{"no-such-atom"}}}}}},
		{"zero-arity-const", &Node{K: "mlt", Op: "some", C: []*Node{{K: "cst", A: 0}}}},
		{"tuple-arity-mismatch", &Node{K: "mlt", Op: "some", C: []*Node{{K: "cst", A: 2, TS: [][]string{{"Port:23"}}}}}},
		{"undeclared-var", &Node{K: "mlt", Op: "some", C: []*Node{{K: "var", V: 7, S: "x"}}}},
		{"comparison-arity", &Node{K: "cmp", B: true, C: []*Node{{K: "rel", S: "Port"}}}},
		{"implies-arity", &Node{K: "nry", Op: "implies", C: []*Node{{K: "cf", B: true}}}},
		{"var-out-of-scope", varOutOfScope},
		{"var-in-own-domain", varInOwnDomain},
		{"wide-const", wideConst(sys)},
		{"wide-product", &Node{K: "mlt", Op: "some", C: []*Node{{K: "bin", Op: "->", C: []*Node{
			{K: "cst", A: sys.Universe.MaxArity()}, {K: "rel", S: "Port"}}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := v.DecodeFormulas([]*Node{tc.node}); err == nil {
				t.Fatalf("malformed node %+v decoded without error", tc.node)
			}
		})
	}
}

// wideConst is `some c` for an empty constant one atom wider than a tuple
// set over sys's universe can be.
func wideConst(sys *muppet.System) *Node {
	return &Node{K: "mlt", Op: "some", C: []*Node{{K: "cst", A: sys.Universe.MaxArity() + 1}}}
}

// TestDecodeWideConstIsMalformed checks that a constant whose tuples
// would not fit 64-bit keys, on which relational.NewTupleSet panics,
// reaches the caller as a malformed-formula error.
func TestDecodeWideConstIsMalformed(t *testing.T) {
	sys, _ := fig1(t, fig1Ports)
	_, err := NewVocab(sys).DecodeFormulas([]*Node{wideConst(sys)})
	if err == nil || !strings.Contains(err.Error(), "malformed wire formula") {
		t.Fatalf("decoding a %d-ary constant: err %v, want a malformed wire formula", sys.Universe.MaxArity()+1, err)
	}
}

// FuzzDecodeEnvelope feeds arbitrary JSON to the envelope decoder, as a
// peer receives it. Decoding must never panic; an envelope it accepts
// must be safe to check against either party's configuration and must
// re-encode to a fixed point.
func FuzzDecodeEnvelope(f *testing.F) {
	sys, bundle := fig1(f, fig1Ports)
	k8s, istio := fig1Parties(f, sys, bundle)
	v := NewVocab(sys)
	for _, pair := range [][2]*muppet.Party{{istio, k8s}, {k8s, istio}} {
		env, err := muppet.ComputeEnvelopeCtx(context.Background(), sys, pair[0], []*muppet.Party{pair[1]})
		if err != nil {
			f.Fatal(err)
		}
		w, err := v.EncodeEnvelope(env)
		if err != nil {
			f.Fatal(err)
		}
		raw, _ := json.Marshal(w)
		f.Add(raw)
	}
	for _, n := range []*Node{varOutOfScope, varInOwnDomain} {
		raw, _ := json.Marshal(&WireEnvelope{From: "K8s", To: "Istio", Clauses: []*Node{n}})
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Evaluation is exponential in quantifier nesting, so a small
		// input can take arbitrarily long to check. Bounding what a wire
		// envelope may cost to evaluate belongs to the memory-budget work;
		// until then, inputs beyond the seeds' size (the larger Fig. 1
		// envelope encodes to 10 KB) are skipped to keep each exec cheap.
		if len(data) > 16<<10 {
			return
		}
		var w WireEnvelope
		if json.Unmarshal(data, &w) != nil {
			return
		}
		env, err := v.DecodeEnvelope(&w)
		if err != nil {
			return
		}
		muppet.CheckCandidate(sys, k8s, env, true, istio)
		muppet.CheckCandidate(sys, istio, env, true, k8s)
		w1, err := v.EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		env1, err := v.DecodeEnvelope(w1)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		w2, err := v.EncodeEnvelope(env1)
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := json.Marshal(w1)
		j2, _ := json.Marshal(w2)
		if string(j1) != string(j2) {
			t.Fatalf("codec is not a fixed point:\n1st %s\n2nd %s", j1, j2)
		}
	})
}
