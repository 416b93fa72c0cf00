package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"muppet"
	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/server"
)

// ref is the reference answer for one distinct op, computed before any
// timing with a cold server.Exec. Every served answer must equal it byte
// for byte.
type ref struct {
	Code   int
	Output string
}

// anyVerdict accepts either determinate verdict code when the answer is
// not known by construction.
const anyVerdict = -1

// checkResponse compares one served answer with its reference.
func checkResponse(code int, output string, want ref) error {
	if code != want.Code {
		return fmt.Errorf("verdict code %d, reference %d", code, want.Code)
	}
	if output != want.Output {
		return fmt.Errorf("output differs from the reference at byte %d (%d vs %d bytes)",
			firstDiff(output, want.Output), len(output), len(want.Output))
	}
	return nil
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// reference computes the cold reference answer for req over the inputs
// named by cfg. wantCode is the verdict known by construction (or
// anyVerdict: 0 or 1, never indeterminate). A reconciled answer is
// additionally re-derived through the workflow API and checked flow by
// flow against its goals with the solver-free evaluator, so the
// reference does not rest on the solver alone.
func reference(ctx context.Context, cfg server.Config, req server.Request, wantCode int) (ref, error) {
	st, err := server.Load(cfg)
	if err != nil {
		return ref{}, err
	}
	resp, err := server.Exec(ctx, st, nil, req, muppet.Budget{})
	if err != nil {
		return ref{}, err
	}
	switch {
	case wantCode == anyVerdict && resp.Code != server.CodeSat && resp.Code != server.CodeUnsat:
		return ref{}, fmt.Errorf("%s: indeterminate reference verdict (code %d)", req.Op, resp.Code)
	case wantCode != anyVerdict && resp.Code != wantCode:
		return ref{}, fmt.Errorf("%s: reference verdict code %d, want %d by construction", req.Op, resp.Code, wantCode)
	}
	if req.Op == "reconcile" && resp.Code == server.CodeSat {
		if err := verifyReconciled(ctx, st, resp.Output); err != nil {
			return ref{}, err
		}
	}
	return ref{Code: resp.Code, Output: resp.Output}, nil
}

// verifyReconciled re-solves the reconciliation, checks that the
// reference output shows exactly the adopted configuration, and checks
// that configuration against both goal tables with mesh.Evaluate.
func verifyReconciled(ctx context.Context, st *server.State, output string) error {
	k8s, k8sState, err := muppet.NewK8sParty(st.Sys, st.Bundle.K8s, st.K8sOffer, st.K8sGoalRows)
	if err != nil {
		return err
	}
	istio, istioState, err := muppet.NewIstioParty(st.Sys, st.Bundle.Istio, st.IstioOffer, st.IstioGoalRows)
	if err != nil {
		return err
	}
	res := muppet.ReconcileCtx(ctx, st.Sys, []*muppet.Party{k8s, istio}, muppet.Budget{})
	if !res.OK {
		return fmt.Errorf("reconcile: re-solve did not reconcile")
	}
	k8s.Adopt(res.Instance)
	istio.Adopt(res.Instance)
	shown := "--- K8s configuration ---\n" + k8s.Describe() + "--- Istio configuration ---\n" + istio.Describe()
	if !strings.HasSuffix(output, shown) {
		return fmt.Errorf("reconcile: reference output does not show the re-solved configuration")
	}
	return checkGoals(st.Sys, k8sState.Config, istioState.Config, istioState.Exposure, st.K8sGoalRows, st.IstioGoalRows)
}

// checkGoals evaluates every goal row against a concrete configuration
// with the direct evaluator: a DENY port goal blocks every flow to a
// selected destination on that port; an ALLOW port goal admits every
// flow to a selected destination that listened on the port; an Istio row
// admits its flow on its port, or — for an existential port — on some
// port, the same one for every row sharing the variable.
func checkGoals(sys *muppet.System, k8s *mesh.K8sConfig, istio *mesh.IstioConfig, exposure map[string][]int,
	k8sGoals []goals.K8sGoal, istioGoals []goals.IstioGoal) error {
	m := sys.MeshWith(exposure)
	allowed := func(src, dst string, port int) bool {
		return mesh.Allowed(m, k8s, istio, mesh.Flow{Src: src, Dst: dst, DstPort: port})
	}
	for _, g := range k8sGoals {
		for _, dst := range sys.Mesh.Services {
			if !dst.HasLabels(g.Selector) || (g.Allow && !dst.Listens(g.Port)) {
				continue
			}
			for _, src := range m.Services {
				if allowed(src.Name, dst.Name, g.Port) != g.Allow {
					return fmt.Errorf("k8s goal %s violated by %s -> %s", g, src.Name, dst.Name)
				}
			}
		}
	}
	services := func(name string) []string {
		if name != "*" {
			return []string{name}
		}
		return m.ServiceNames()
	}
	var ports []int
	seen := map[int]bool{}
	for _, s := range m.Services {
		for _, p := range s.Ports {
			if !seen[p] {
				seen[p] = true
				ports = append(ports, p)
			}
		}
	}
	sort.Ints(ports)
	holds := func(g goals.IstioGoal, port int) bool {
		for _, src := range services(g.Src) {
			for _, dst := range services(g.Dst) {
				if src != dst && allowed(src, dst, port) != g.Allow {
					return false
				}
			}
		}
		return true
	}
	byVar := map[string][]goals.IstioGoal{}
	for _, g := range istioGoals {
		switch g.DstPort.Kind {
		case goals.PortLit:
			if !holds(g, g.DstPort.Port) {
				return fmt.Errorf("istio goal %s violated", g)
			}
		case goals.PortAny:
			ok := false
			for _, p := range ports {
				if holds(g, p) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("istio goal %s holds on no port", g)
			}
		case goals.PortVar:
			byVar[g.DstPort.Var] = append(byVar[g.DstPort.Var], g)
		}
	}
	for v, rows := range byVar {
		ok := false
		for _, p := range ports {
			all := true
			for _, g := range rows {
				if !holds(g, p) {
					all = false
					break
				}
			}
			if all {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("istio goals sharing ?%s hold on no common port", v)
		}
	}
	return nil
}
