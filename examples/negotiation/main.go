// Negotiation: the Fig. 9 workflow after the conflict has already landed.
// The K8s administrator has pushed the port-23 ban (and won't retract it);
// the Istio administrator's mesh broke. Negotiation with the strict goals
// ends stuck — the solver tells the humans to talk. The Istio admin then
// relaxes goals (the Fig. 4 move) and widens the negotiable region, and
// the next negotiation run converges via a solver-mediated counter-offer.
//
// Run from the repository root:
//
//	go run ./examples/negotiation
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
	// The ban is already deployed.
	banned := &muppet.K8sConfig{Policies: []*muppet.NetworkPolicy{{
		Name:             "cluster-default",
		IngressDenyPorts: []int{23},
	}}}
	sys, err := muppet.NewSystem(bundle.Mesh, banned.Policies, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		log.Fatal(err)
	}

	// The outage, observed with the runtime evaluator.
	broken := muppet.Flow{Src: "test-backend", Dst: "test-frontend", SrcPort: 26, DstPort: 23}
	v := muppet.Evaluate(bundle.Mesh, banned, bundle.Istio, broken)
	fmt.Printf("after the push, %v: DENIED (%s)\n\n", broken, v.Reason)

	k8sGoals, err := muppet.LoadK8sGoals("testdata/fig1/k8s_goals.csv")
	if err != nil {
		log.Fatal(err)
	}
	strict, err := muppet.LoadIstioGoals("testdata/fig1/istio_goals.csv")
	if err != nil {
		log.Fatal(err)
	}

	// Round 1 of human time: both sides register inflexible offers.
	k8sParty, _, err := muppet.NewK8sParty(sys, banned, muppet.Offer{}, k8sGoals)
	if err != nil {
		log.Fatal(err)
	}
	istioParty, _, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.Offer{}, strict)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== negotiation with strict goals and fixed offers ===")
	ctx := context.Background()
	out := muppet.NewNegotiation(sys, k8sParty, istioParty).RunCtx(ctx, muppet.Budget{})
	for _, r := range out.Rounds {
		status := "revised"
		if r.Stuck {
			status = "stuck"
		} else if r.ConformedAlready {
			status = "already conforms"
		}
		fmt.Printf("  round %d: %s %s\n", r.Round, r.Party, status)
	}
	if out.Reconciled {
		log.Fatal("unexpected: strict negotiation should fail")
	}
	fmt.Println("negotiation failed — the solver's blame for the humans:")
	fmt.Println(out.Feedback)
	fmt.Println()

	// The Fig. 4 move: relaxed goals, fully negotiable Istio offer.
	relaxed, err := muppet.LoadIstioGoals("testdata/fig1/istio_goals_revised.csv")
	if err != nil {
		log.Fatal(err)
	}
	istioParty2, istioState, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), relaxed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== negotiation after the Fig. 4 relaxation ===")
	out = muppet.NewNegotiation(sys, k8sParty, istioParty2).RunCtx(ctx, muppet.Budget{})
	if !out.Reconciled {
		log.Fatalf("negotiation should now succeed: %v", out.Feedback)
	}
	if out.InitialReconcile {
		fmt.Println("offers reconciled immediately")
	}
	for _, r := range out.Rounds {
		fmt.Printf("  round %d: %s (%d edits, reconciled=%v)\n", r.Round, r.Party, len(r.Edits), r.Reconciled)
	}
	fmt.Println("\nnegotiated Istio configuration:")
	fmt.Print(istioParty2.Describe())

	m2 := sys.MeshWith(istioState.Exposure)
	reach := muppet.ReachabilityMatrix(m2, banned, istioState.Config)
	fmt.Println("\nmesh health after negotiation:")
	for _, src := range m2.ServiceNames() {
		for _, dst := range m2.ServiceNames() {
			if ports := reach[src+"->"+dst]; len(ports) > 0 {
				fmt.Printf("  %s->%s: %v\n", src, dst, ports)
			}
		}
	}
}
