// Conformance: the full Sec. 3 walkthrough in the paper's conformance mode
// (Fig. 7). The K8s provider is inflexible about its port-23 ban; the Istio
// tenant first fails against the envelope with its strict Fig. 3 goals,
// then relaxes them to the Fig. 4 existential form and conforms, receiving
// a minimally-edited configuration that keeps the mesh working.
//
// Run from the repository root:
//
//	go run ./examples/conformance
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
		"testdata/fig1/k8s_current.yaml",
		"testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		log.Fatal(err)
	}
	k8sGoals, err := muppet.LoadK8sGoals("testdata/fig1/k8s_goals.csv")
	if err != nil {
		log.Fatal(err)
	}

	// Attempt 1: the tenant insists on the strict Fig. 3 goals
	// (frontend must receive on port 23). Conformance fails in the
	// revision step, with blame.
	strict, err := muppet.LoadIstioGoals("testdata/fig1/istio_goals.csv")
	if err != nil {
		log.Fatal(err)
	}
	provider, _, err := muppet.NewK8sParty(sys, bundle.K8s, muppet.Offer{}, k8sGoals)
	if err != nil {
		log.Fatal(err)
	}
	tenant, _, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), strict)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	out := muppet.RunConformanceCtx(ctx, sys, provider, tenant, muppet.Budget{})
	fmt.Println("=== Attempt 1: strict Fig. 3 goals ===")
	fmt.Printf("provider locally consistent: %v\n", out.ProviderConsistent)
	fmt.Println("envelope E_{K8s→Istio}:")
	fmt.Print(out.Envelope)
	if out.Reconciled {
		log.Fatal("unexpected: strict goals should not conform")
	}
	fmt.Printf("conformance failed at step %q\n%s\n\n", out.FailedStep, out.Feedback)

	// Attempt 2: the tenant relaxes ports to existential variables
	// (Fig. 4) — "it doesn't matter which port is exposed so long as the
	// frontend is reachable".
	relaxed, err := muppet.LoadIstioGoals("testdata/fig1/istio_goals_revised.csv")
	if err != nil {
		log.Fatal(err)
	}
	provider2, _, err := muppet.NewK8sParty(sys, bundle.K8s, muppet.Offer{}, k8sGoals)
	if err != nil {
		log.Fatal(err)
	}
	tenant2, tenantState, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), relaxed)
	if err != nil {
		log.Fatal(err)
	}
	out = muppet.RunConformanceCtx(ctx, sys, provider2, tenant2, muppet.Budget{})
	fmt.Println("=== Attempt 2: relaxed Fig. 4 goals ===")
	if !out.Reconciled {
		log.Fatalf("conformance failed at %s: %v", out.FailedStep, out.Feedback)
	}
	fmt.Println("conformed; minimal edits applied to the tenant:")
	for _, e := range out.Edits {
		fmt.Println("  ", e)
	}
	fmt.Println()
	fmt.Println("delivered Istio configuration:")
	fmt.Print(tenant2.Describe())

	// Verify with the runtime evaluator: the ban holds, the mesh works.
	m2 := sys.MeshWith(tenantState.Exposure)
	reach := muppet.ReachabilityMatrix(m2, bundle.K8s, tenantState.Config)
	fmt.Println("\nfinal reachability matrix (src->dst: open ports):")
	for _, src := range m2.ServiceNames() {
		for _, dst := range m2.ServiceNames() {
			if ports := reach[src+"->"+dst]; len(ports) > 0 {
				fmt.Printf("  %s->%s: %v\n", src, dst, ports)
			}
		}
	}
}
