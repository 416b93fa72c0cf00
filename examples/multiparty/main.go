// Multiparty: the Sec. 7 extension beyond two administrators. A security
// operations team joins the K8s and Istio administrators, owning its own
// NetworkPolicy shell with its own goal. The joint envelope
// E_{K8s,SecOps→Istio} merges both senders' obligations, and the
// round-robin negotiation cycle simply grows by one seat.
//
// Run from the repository root:
//
//	go run ./examples/multiparty
package main

import (
	"context"
	"fmt"
	"log"

	"muppet"
)

func main() {
	bundle, err := muppet.LoadFiles(
		"testdata/fig1/mesh.yaml",
		"testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		log.Fatal(err)
	}

	// Two K8s-side policy shells: the cluster default (platform team) and
	// a SecOps policy scoped to backend services.
	platformShell := &muppet.NetworkPolicy{Name: "cluster-default"}
	secopsShell := &muppet.NetworkPolicy{Name: "secops", Selector: map[string]string{"app": "backend"}}
	sys, err := muppet.NewSystem(bundle.Mesh,
		[]*muppet.NetworkPolicy{platformShell, secopsShell},
		bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		log.Fatal(err)
	}

	k8sGoals, err := muppet.LoadK8sGoals("testdata/fig1/k8s_goals.csv")
	if err != nil {
		log.Fatal(err)
	}
	relaxed, err := muppet.LoadIstioGoals("testdata/fig1/istio_goals_revised.csv")
	if err != nil {
		log.Fatal(err)
	}

	platform, platformState, err := muppet.NewK8sParty(sys,
		&muppet.K8sConfig{Policies: []*muppet.NetworkPolicy{{Name: "cluster-default"}}},
		muppet.AllSoft(), k8sGoals)
	if err != nil {
		log.Fatal(err)
	}

	secops, _, err := muppet.NewK8sParty(sys,
		&muppet.K8sConfig{Policies: []*muppet.NetworkPolicy{{Name: "secops"}}},
		muppet.AllSoft(),
		[]muppet.K8sGoal{{Port: 16000, Allow: false, Selector: map[string]string{"app": "backend"}}})
	if err != nil {
		log.Fatal(err)
	}
	secops.Name = "SecOps"

	istio, istioState, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), relaxed)
	if err != nil {
		log.Fatal(err)
	}

	// The joint envelope to the Istio administrator (Sec. 7:
	// E_{A,B→C} via merged substitution).
	ctx := context.Background()
	env, err := muppet.ComputeEnvelopeCtx(ctx, sys, istio, []*muppet.Party{platform, secops})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("joint envelope", env.Name(), "—", len(env.Clauses), "clauses:")
	fmt.Print(env)
	fmt.Println()

	// Three-seat negotiation.
	out := muppet.NewNegotiation(sys, platform, secops, istio).RunCtx(ctx, muppet.Budget{})
	if !out.Reconciled {
		log.Fatalf("three-party negotiation failed: %v", out.Feedback)
	}
	fmt.Println("three-party negotiation reconciled.")
	if out.InitialReconcile {
		fmt.Println("(initial offers were already compatible)")
	}
	for _, r := range out.Rounds {
		fmt.Printf("  round %d: %s edits=%d reconciled=%v\n", r.Round, r.Party, len(r.Edits), r.Reconciled)
	}

	m2 := sys.MeshWith(istioState.Exposure)
	// Adopt decodes every K8s shell into each K8s-side party's state, so
	// the platform state's configuration carries both policies.
	reach := muppet.ReachabilityMatrix(m2, platformState.Config, istioState.Config)
	fmt.Println("\nfinal reachability matrix:")
	for _, src := range m2.ServiceNames() {
		for _, dst := range m2.ServiceNames() {
			if ports := reach[src+"->"+dst]; len(ports) > 0 {
				fmt.Printf("  %s->%s: %v\n", src, dst, ports)
			}
		}
	}
}
