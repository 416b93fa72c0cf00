package server

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"muppet"
	"muppet/internal/target"
)

// Verdict codes shared by the CLI's exit status and the daemon's JSON
// responses, so scripted callers branch identically against either front
// end.
const (
	CodeSat           = 0 // satisfiable / workflow succeeded
	CodeUnsat         = 1 // unsatisfiable / workflow failed with blame
	CodeUsage         = 2 // usage error
	CodeIndeterminate = 3 // budget exhausted or interrupted
	CodeInternal      = 4 // internal or input error
)

// ErrUsage marks request errors the client caused (unknown op, unknown
// party); the HTTP layer maps it to 400, the CLI to its usage exit code.
var ErrUsage = errors.New("usage")

// Request names one mediation query. Op selects the workflow; the other
// fields mirror the corresponding CLI flags and are ignored by ops that
// do not use them. Budgets travel out of band (CLI flags, HTTP headers)
// because they bound the serving machinery, not the question asked.
type Request struct {
	Op       string `json:"op"`
	Party    string `json:"party,omitempty"`    // check: subject party (default k8s)
	From     string `json:"from,omitempty"`     // envelope: sender (default k8s)
	To       string `json:"to,omitempty"`       // envelope: recipient (default istio)
	Leakage  bool   `json:"leakage,omitempty"`  // envelope: also print leaked atoms
	English  bool   `json:"english,omitempty"`  // envelope: also print prose rendering
	Provider string `json:"provider,omitempty"` // conform: inflexible provider (default k8s)
	Rounds   int    `json:"rounds,omitempty"`   // negotiate: max revision rounds (0 = default)
	Peers    string `json:"peers,omitempty"`    // negotiate: federated peer list "k8s=url,istio=url"
}

// Response is one mediation verdict. Output is the exact text the muppet
// CLI prints for the same query — byte-identical by construction, since
// the CLI renders through this same Exec — and Code is the CLI's exit
// code (0 sat, 1 unsat, 3 indeterminate).
type Response struct {
	Op     string `json:"op"`
	Code   int    `json:"code"`
	Output string `json:"output"`
	Stop   string `json:"stop,omitempty"` // stop reason when Code == 3
}

// Exec runs one mediation request against the shared state, solving on
// the given cache (which may be warm from earlier requests) within the
// budget. ctx cancellation surfaces as an indeterminate verdict, never an
// error. Errors are reserved for malformed requests (wrapped ErrUsage)
// and party-construction failures.
func Exec(ctx context.Context, st *State, cache *muppet.SolveCache, req Request, b muppet.Budget) (Response, error) {
	return ExecFed(ctx, st, cache, req, b, nil)
}

// ExecFed is Exec with federated-negotiation plumbing: when a negotiate
// request names Peers, this process coordinates the loop and each party's
// revision turn runs on its remote mediator, with fopts tuning the retry,
// breaker, and transcript machinery (nil = defaults). All other requests
// pass through to the local path untouched.
func ExecFed(ctx context.Context, st *State, cache *muppet.SolveCache, req Request, b muppet.Budget, fopts *FedOptions) (Response, error) {
	k8sParty, istioParty, err := st.FreshParties()
	if err != nil {
		return Response{}, err
	}
	pick := func(name, def string) (*muppet.Party, error) {
		if name == "" {
			name = def
		}
		switch strings.ToLower(name) {
		case "k8s", "kubernetes":
			return k8sParty, nil
		case "istio":
			return istioParty, nil
		}
		return nil, fmt.Errorf("%w: unknown party %q (want k8s or istio)", ErrUsage, name)
	}
	other := func(p *muppet.Party) *muppet.Party {
		if p == istioParty {
			return k8sParty
		}
		return istioParty
	}

	var out strings.Builder
	resp := Response{Op: req.Op}
	indeterminate := func(stop muppet.StopReason) {
		fmt.Fprintf(&out, "INDETERMINATE (%s)\n", stop)
		resp.Code = CodeIndeterminate
		resp.Stop = fmt.Sprint(stop)
	}
	// warnDegraded notes an interrupted minimal-edit search on an
	// otherwise successful result: the completion is valid, its edits
	// possibly non-minimal.
	warnDegraded := func(stop muppet.StopReason) {
		if stop != muppet.StopNone {
			fmt.Fprintf(&out, "  (edit search interrupted: %s; edits may be non-minimal)\n", stop)
		}
	}

	switch req.Op {
	case "check":
		subject, err := pick(req.Party, "k8s")
		if err != nil {
			return Response{}, err
		}
		res := cache.LocalConsistencyCtx(ctx, st.Sys, subject, []*muppet.Party{other(subject)}, b)
		switch {
		case res.Indeterminate:
			indeterminate(res.Stop)
		case !res.OK:
			fmt.Fprintln(&out, "INCONSISTENT")
			fmt.Fprintln(&out, res.Feedback)
			resp.Code = CodeUnsat
		default:
			fmt.Fprintln(&out, "CONSISTENT")
			warnDegraded(res.Stop)
			for _, e := range res.Edits {
				fmt.Fprintln(&out, "  soft edit:", e)
			}
		}

	case "envelope":
		sender, err := pick(req.From, "k8s")
		if err != nil {
			return Response{}, err
		}
		recipient, err := pick(req.To, "istio")
		if err != nil {
			return Response{}, err
		}
		env, err := muppet.ComputeEnvelopeCtx(ctx, st.Sys, recipient, []*muppet.Party{sender})
		if err != nil {
			indeterminate(target.FromContext(err))
			break
		}
		fmt.Fprint(&out, env)
		if env.Unsatisfiable() {
			fmt.Fprintln(&out, "// WARNING: unsatisfiable — the sender's own settings defeat its goals")
		}
		if req.English {
			fmt.Fprintln(&out)
			fmt.Fprint(&out, muppet.EnglishEnvelope(st.Sys, env))
		}
		if req.Leakage {
			fmt.Fprintln(&out, "// leaked atoms:", strings.Join(env.LeakedAtoms(), ", "))
		}

	case "reconcile":
		res := cache.ReconcileCtx(ctx, st.Sys, []*muppet.Party{k8sParty, istioParty}, b)
		switch {
		case res.Indeterminate:
			indeterminate(res.Stop)
		case !res.OK:
			fmt.Fprintln(&out, "CANNOT RECONCILE")
			fmt.Fprintln(&out, res.Feedback)
			resp.Code = CodeUnsat
		default:
			k8sParty.Adopt(res.Instance)
			istioParty.Adopt(res.Instance)
			fmt.Fprintln(&out, "RECONCILED")
			warnDegraded(res.Stop)
			for _, e := range res.Edits {
				fmt.Fprintln(&out, "  soft edit:", e)
			}
			fmt.Fprintln(&out, "--- K8s configuration ---")
			fmt.Fprint(&out, k8sParty.Describe())
			fmt.Fprintln(&out, "--- Istio configuration ---")
			fmt.Fprint(&out, istioParty.Describe())
		}

	case "conform":
		prov, err := pick(req.Provider, "k8s")
		if err != nil {
			return Response{}, err
		}
		tenant := other(prov)
		o := cache.RunConformanceCtx(ctx, st.Sys, prov, tenant, b)
		if o.Indeterminate {
			fmt.Fprintf(&out, "INDETERMINATE at %s (%s)\n", o.FailedStep, o.Stop)
			resp.Code = CodeIndeterminate
			resp.Stop = fmt.Sprint(o.Stop)
			break
		}
		fmt.Fprintf(&out, "provider locally consistent: %v\n", o.ProviderConsistent)
		if o.Envelope != nil {
			fmt.Fprint(&out, o.Envelope)
		}
		if len(o.Edits) > 0 {
			fmt.Fprintln(&out, "tenant revision edits:")
			for _, e := range o.Edits {
				fmt.Fprintln(&out, "  ", e)
			}
		}
		if !o.Reconciled {
			fmt.Fprintf(&out, "FAILED at %s\n%s\n", o.FailedStep, o.Feedback)
			resp.Code = CodeUnsat
			break
		}
		fmt.Fprintln(&out, "CONFORMED")
		fmt.Fprintln(&out, "--- delivered tenant configuration ---")
		fmt.Fprint(&out, tenant.Describe())

	case "negotiate":
		// A request naming Peers runs the loop as the federated
		// coordinator, over its replicas of the parties; both render here.
		var o *muppet.NegotiationOutcome
		if req.Peers != "" {
			if o, k8sParty, istioParty, err = coordinate(ctx, st, cache, req, b, fopts); err != nil {
				return Response{}, err
			}
		} else {
			n := muppet.NewNegotiation(st.Sys, k8sParty, istioParty).UseCache(cache)
			if req.Rounds > 0 {
				n.MaxRounds = req.Rounds
			}
			o = n.RunCtx(ctx, b)
		}
		if o.InitialReconcile {
			fmt.Fprintln(&out, "initial offers reconciled immediately")
		}
		for _, r := range o.Rounds {
			fmt.Fprintf(&out, "round %d: %s ", r.Round, r.Party)
			switch {
			case r.Indeterminate:
				fmt.Fprintln(&out, "was interrupted mid-round")
			case r.Stuck:
				fmt.Fprintln(&out, "is stuck — administrators must talk")
			case r.ConformedAlready:
				fmt.Fprintln(&out, "already conforms")
			case r.Revised:
				fmt.Fprintf(&out, "revised with %d edits\n", len(r.Edits))
			}
			if r.Reconciled {
				fmt.Fprintln(&out, "  → reconciled")
			}
		}
		switch {
		case o.Reason == muppet.ReasonIndeterminate:
			fmt.Fprintf(&out, "NEGOTIATION INDETERMINATE (%s)\n", o.Stop)
			resp.Code = CodeIndeterminate
			resp.Stop = fmt.Sprint(o.Stop)
		case o.Reason == muppet.ReasonUnreachable:
			// Only a federated run degrades: the replicas hold the
			// best-so-far partial agreement, reported with the typed
			// failure instead of torn down.
			fmt.Fprintf(&out, "NEGOTIATION DEGRADED (%s)\n%v\n", o.Reason, o.Err)
			fmt.Fprintln(&out, "--- best-so-far K8s configuration ---")
			fmt.Fprint(&out, k8sParty.Describe())
			fmt.Fprintln(&out, "--- best-so-far Istio configuration ---")
			fmt.Fprint(&out, istioParty.Describe())
			resp.Code = CodeIndeterminate
			resp.Stop = o.Reason.String()
		case !o.Reconciled:
			fmt.Fprintf(&out, "NEGOTIATION FAILED (%s)\n%s\n", o.Reason, o.Feedback)
			resp.Code = CodeUnsat
		default:
			fmt.Fprintln(&out, "NEGOTIATED")
			fmt.Fprintln(&out, "--- K8s configuration ---")
			fmt.Fprint(&out, k8sParty.Describe())
			fmt.Fprintln(&out, "--- Istio configuration ---")
			fmt.Fprint(&out, istioParty.Describe())
		}

	default:
		return Response{}, fmt.Errorf("%w: unknown op %q", ErrUsage, req.Op)
	}
	resp.Output = out.String()
	return resp, nil
}

// Ops lists the mediation operations Exec serves, in the order the paper
// presents them.
func Ops() []string {
	return []string{"check", "envelope", "reconcile", "conform", "negotiate"}
}
