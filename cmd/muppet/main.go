// Command muppet is the CLI front end for the solver-aided multi-party
// configuration toolkit. It mirrors the paper's workflows:
//
//	muppet check      — local consistency of one party's offer (Alg. 1)
//	muppet envelope   — compute and print E_{A→B} (Alg. 3, Fig. 5)
//	muppet reconcile  — reconcile all offers (Alg. 2)
//	muppet conform    — the conformance workflow (Fig. 7)
//	muppet negotiate  — the negotiation workflow (Fig. 9)
//	muppet diff       — diff two bundle revisions; delta re-reconcile
//	muppet watch      — follow a daemon's watch endpoint
//	muppet eval       — evaluate one flow under concrete configurations
//	muppet version    — report the build's version and VCS revision
//
// System structure and current configurations come from YAML files (K8s
// Services and NetworkPolicies, Istio AuthorizationPolicies); goals come
// from CSV tables (see package goals for the format).
//
// The workflow commands solve locally by default; with -addr they route
// the same request through a running muppetd daemon instead, and print
// its (byte-identical) verdict. Solving commands accept -timeout and
// -max-conflicts budgets and a -v flag printing session-reuse and
// encoding statistics; they honour SIGINT/SIGTERM; an interrupted solve
// reports INDETERMINATE with the stop reason rather than a fabricated
// verdict. Exit codes are distinct:
//
//	0 — satisfiable / workflow succeeded
//	1 — unsatisfiable / workflow failed with blame
//	2 — usage error
//	3 — indeterminate (budget exhausted or interrupted)
//	4 — internal or input error
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"muppet"
	"muppet/internal/buildinfo"
	"muppet/internal/feder"
	"muppet/internal/server"
	"muppet/internal/target"
)

// Exit codes, shared with the daemon's verdict codes so scripted callers
// (and the paper's Fig. 7/9 driver loops) branch identically against
// either front end.
const (
	exitSat           = server.CodeSat
	exitUnsat         = server.CodeUnsat
	exitUsage         = server.CodeUsage
	exitIndeterminate = server.CodeIndeterminate
	exitInternal      = server.CodeInternal
)

// statusErr carries an exit code through the command's error return when
// the verdict has already been printed and no further message is needed.
type statusErr int

func (e statusErr) Error() string { return "exit status " + strconv.Itoa(int(e)) }

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches argv with SIGINT/SIGTERM wired to context cancellation,
// so an operator's ^C interrupts the solver and yields an INDETERMINATE
// verdict instead of killing the process mid-solve.
func run(argv []string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, argv)
}

// runCtx dispatches argv under ctx. It is the testable seam for the
// signal→cancel wiring, and the recover boundary: the relational
// evaluator signals malformed internal state by panicking, and a serving
// front end must convert that into a clean error, not a crash.
func runCtx(ctx context.Context, argv []string) (code int) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "muppet: internal error: %v\n", p)
			code = exitInternal
		}
	}()
	if len(argv) < 1 {
		usage()
		return exitUsage
	}
	if err := dispatchFn(ctx, argv[0], argv[1:]); err != nil {
		var se statusErr
		if errors.As(err, &se) {
			return int(se)
		}
		fmt.Fprintln(os.Stderr, "muppet:", err)
		if errors.Is(err, server.ErrUsage) {
			return exitUsage
		}
		return exitInternal
	}
	return exitSat
}

// dispatchFn is a seam for tests to exercise the recover boundary.
var dispatchFn = dispatch

func dispatch(ctx context.Context, cmd string, args []string) error {
	switch cmd {
	case "check":
		return runCheck(ctx, args)
	case "envelope":
		return runEnvelope(ctx, args)
	case "reconcile":
		return runReconcile(ctx, args)
	case "conform":
		return runConform(ctx, args)
	case "negotiate":
		return runNegotiate(ctx, args)
	case "diff":
		return runDiff(ctx, args)
	case "watch":
		return runWatch(ctx, args)
	case "eval":
		return runEval(ctx, args)
	case "transcript":
		return runTranscript(ctx, args)
	case "version":
		fmt.Println("muppet", buildinfo.Version())
		return nil
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		fmt.Fprintf(os.Stderr, "muppet: unknown command %q\n", cmd)
		usage()
		return statusErr(exitUsage)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: muppet <command> [flags]

commands:
  check      local consistency of one party's offer (Alg. 1)
  envelope   compute an envelope between parties (Alg. 3)
  reconcile  reconcile all parties' offers (Alg. 2)
  conform    run the conformance workflow (Fig. 7)
  negotiate  run the negotiation workflow (Fig. 9)
  diff       compare two bundle revisions; -op serves the new revision
             through the old one's warm sessions (delta re-reconcile)
  watch      follow a daemon's watch endpoint, printing each revision's
             verdict as goals/configs change
  eval       evaluate a single flow under the loaded configurations
  transcript verify an HMAC-chained federated negotiation transcript
  version    report the build's version and VCS revision

common flags:
  -files        comma-separated YAML files (Services, NetworkPolicies,
                AuthorizationPolicies)
  -k8s-goals    CSV file with K8s goals (port,perm,selector)
  -istio-goals  CSV file with Istio goals (src,dst,srcPort,dstPort[,perm])
  -k8s-offer    fixed|soft|holes (default fixed)
  -istio-offer  fixed|soft|holes (default soft)
  -ports        comma-separated extra ports for the inventory

check/envelope/reconcile/conform/negotiate also accept:
  -addr           route the request through a running muppetd at host:port
                  instead of solving locally (budgets travel as headers;
                  -strategy/-v are daemon-side and rejected)
  -tenant         tenant to address on the daemon (requires -addr;
                  default: the daemon's default tenant)
  -retries        retries for retryable daemon failures in -addr mode:
                  429, 503, connection errors (default 2)

negotiate also accepts (federated mode):
  -federated        coordinate the negotiation across muppetd peers, each
                    holding only its own party's bundle
  -peers            name=url pairs, one per party:
                    k8s=http://host:port,istio=http://host:port
  -transcript       append the HMAC-chained negotiation transcript here
  -transcript-key   shared HMAC key for -transcript (and transcript verify)

check/envelope/reconcile/conform/negotiate also accept:
  -timeout        wall-clock budget for the whole command (e.g. 500ms; 0 = none)
  -max-conflicts  solver conflict budget (0 = none)
  -encoding       encoding pipeline: full (default) | legacy | comma list of
                  no-polarity,no-simp
  -v              print session-reuse and encoding statistics

diff accepts:
  -before/-after  the two revisions: tenant.yaml manifests or their dirs
  -op             also serve this op for -after via warm rebase, exiting
                  with its verdict code (without -op: exit 0 unchanged,
                  1 changed)
  -party/-provider parameterize check/conform

watch accepts:
  -addr           muppetd to follow (required); -tenant picks the bundle
  -op             op to watch (default reconcile); -party/-provider as above
  -events         stop after N events (0 = until terminal or ^C)
  -raw            suppress the // delta commentary lines

reconcile/conform/negotiate also accept:
  -strategy     minimal-edit distance search: auto|linear|binary

exit codes: 0 sat/success, 1 unsat/failure, 2 usage,
            3 indeterminate (budget/interrupt), 4 internal error
`)
}

// inputs gathers the flags shared by all workflow commands; it is the
// CLI face of server.Config.
type inputs struct {
	cfg server.Config
}

func (in *inputs) register(fs *flag.FlagSet) {
	fs.StringVar(&in.cfg.Files, "files", "", "comma-separated YAML files")
	fs.StringVar(&in.cfg.K8sGoals, "k8s-goals", "", "K8s goals CSV")
	fs.StringVar(&in.cfg.IstioGoals, "istio-goals", "", "Istio goals CSV")
	fs.StringVar(&in.cfg.K8sOffer, "k8s-offer", "fixed", "K8s offer: fixed|soft|holes")
	fs.StringVar(&in.cfg.IstioOffer, "istio-offer", "soft", "Istio offer: fixed|soft|holes")
	fs.StringVar(&in.cfg.Ports, "ports", "", "extra ports, comma-separated")
}

func (in *inputs) load() (*server.State, error) { return server.Load(in.cfg) }

// limits gathers the solve-budget and solver-configuration flags shared by
// the solving commands.
type limits struct {
	timeout      time.Duration
	maxConflicts int64
	encoding     string
	verbose      bool
}

func (l *limits) register(fs *flag.FlagSet) {
	fs.DurationVar(&l.timeout, "timeout", 0,
		"wall-clock budget for the whole command (0 = none)")
	fs.Int64Var(&l.maxConflicts, "max-conflicts", 0,
		"solver conflict budget (0 = none)")
	fs.StringVar(&l.encoding, "encoding", "full",
		"encoding pipeline: full|legacy or comma list of no-polarity,no-simp")
	fs.BoolVar(&l.verbose, "v", false,
		"print session-reuse and encoding statistics")
}

// parseEncoding maps the -encoding flag to an encoding configuration.
func parseEncoding(s string) (muppet.Encoding, error) {
	switch s {
	case "", "full":
		return muppet.Encoding{}, nil
	case "legacy":
		return muppet.Encoding{NoPolarity: true, NoPreprocess: true}, nil
	}
	var e muppet.Encoding
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "no-polarity":
			e.NoPolarity = true
		case "no-simp":
			e.NoPreprocess = true
		default:
			return e, fmt.Errorf("%w: bad -encoding %q (want full|legacy or no-polarity,no-simp)", server.ErrUsage, s)
		}
	}
	return e, nil
}

// apply derives the solving context and budget. The deadline clock starts
// here — before input loading — so -timeout bounds the whole command, not
// just the solver. The returned cancel must be deferred.
func (l *limits) apply(ctx context.Context) (context.Context, context.CancelFunc, muppet.Budget, error) {
	enc, err := parseEncoding(l.encoding)
	if err != nil {
		return ctx, func() {}, muppet.Budget{}, err
	}
	muppet.SetEncoding(enc)
	b := muppet.Budget{MaxConflicts: l.maxConflicts}
	cancel := context.CancelFunc(func() {})
	if l.timeout > 0 {
		b.Deadline = time.Now().Add(l.timeout)
		ctx, cancel = context.WithDeadline(ctx, b.Deadline)
	}
	return ctx, cancel, b, nil
}

// daemonFlags gathers the daemon-routing flags shared by the workflow
// commands: where the daemon is, which of its tenants to address, and how
// persistently to retry retryable failures.
type daemonFlags struct {
	addr     string
	tenantID string
	retries  int
}

// registerAddr adds the daemon-routing flags.
func registerAddr(fs *flag.FlagSet) *daemonFlags {
	d := &daemonFlags{}
	fs.StringVar(&d.addr, "addr", "",
		"route the request through a running muppetd at host:port instead of solving locally")
	fs.StringVar(&d.tenantID, "tenant", "",
		"tenant to address on the daemon (requires -addr; default: the daemon's default tenant)")
	fs.IntVar(&d.retries, "retries", 2,
		"retries for retryable daemon failures (429, 503, connection errors; -addr mode)")
	return d
}

// execute runs one mediation request: locally through server.ExecFed
// (the same renderer the daemon uses, so both modes produce byte-identical
// verdicts), or against a running daemon when addr is set. strategy is ""
// for commands without a -strategy flag; fed is non-nil when this process
// coordinates a federated negotiation.
func execute(ctx context.Context, in *inputs, lim *limits, strategy string, d *daemonFlags, req server.Request, fed *federation) error {
	addr, tenantID := d.addr, d.tenantID
	if addr != "" {
		return clientExecute(ctx, addr, tenantID, lim, strategy, d.retries, req)
	}
	if tenantID != "" {
		return fmt.Errorf("-tenant selects a daemon bundle and needs -addr; local solves take their bundle from -files")
	}
	if strategy != "" {
		if err := applyStrategy(strategy); err != nil {
			return err
		}
	}
	ctx, cancel, budget, err := lim.apply(ctx)
	if err != nil {
		return err
	}
	defer cancel()
	st, err := in.load()
	if err != nil {
		return err
	}
	var fopts *server.FedOptions
	if fed != nil {
		fopts = fed.options(d.retries)
		if fed.transcriptPath != "" {
			f, err := os.OpenFile(fed.transcriptPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			fopts.Transcript = feder.NewTranscriptWriter(f, []byte(fed.transcriptKey))
		}
	}
	cache := muppet.NewSolveCache()
	resp, err := server.ExecFed(ctx, st, cache, req, budget, fopts)
	if err != nil {
		return err
	}
	if lim.verbose {
		printReuse(cache.Stats())
		if fed != nil {
			fed.print()
		}
	}
	fmt.Print(resp.Output)
	if resp.Code != exitSat {
		return statusErr(resp.Code)
	}
	return nil
}

// printReuse reports -v statistics: how much grounding the solve cache
// avoided and how large the encoding it built is.
func printReuse(st muppet.ReuseStats) {
	t := st.Translation
	fmt.Printf("// sessions: %d built, %d reused; translation cache: %d structural hits, %d misses\n",
		st.Sessions, st.Reuses, t.StructHits, t.Misses)
	e := st.Encoding
	fmt.Printf("// encoding: %d circuit nodes, %d vars, %d clauses; preprocessing eliminated %d vars, removed %d clauses\n",
		e.CircuitNodes, e.SolverVars, e.SolverClauses, e.VarsEliminated, e.ClausesRemoved)
}

// registerStrategy adds the -strategy flag shared by the commands that
// run minimal-edit search (reconcile, conform, negotiate).
func registerStrategy(fs *flag.FlagSet) *string {
	return fs.String("strategy", "auto", "minimal-edit distance search: auto|linear|binary")
}

// applyStrategy sets the target package's default search strategy, which
// workspace minimisation (Options zero value) follows.
func applyStrategy(name string) error {
	st, ok := target.ParseStrategy(name)
	if !ok {
		return fmt.Errorf("%w: bad -strategy %q (want auto|linear|binary)", server.ErrUsage, name)
	}
	target.SetDefaultStrategy(st)
	return nil
}

func runCheck(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	var in inputs
	var lim limits
	in.register(fs)
	lim.register(fs)
	d := registerAddr(fs)
	party := fs.String("party", "k8s", "party to check: k8s|istio")
	fs.Parse(args)
	return execute(ctx, &in, &lim, "", d, server.Request{Op: "check", Party: *party}, nil)
}

func runEnvelope(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("envelope", flag.ExitOnError)
	var in inputs
	var lim limits
	in.register(fs)
	lim.register(fs)
	d := registerAddr(fs)
	from := fs.String("from", "k8s", "sender party")
	to := fs.String("to", "istio", "recipient party")
	leakage := fs.Bool("leakage", false, "also print the leaked atoms")
	english := fs.Bool("english", false, "also print a prose rendering")
	fs.Parse(args)
	return execute(ctx, &in, &lim, "", d, server.Request{
		Op: "envelope", From: *from, To: *to, Leakage: *leakage, English: *english,
	}, nil)
}

func runReconcile(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("reconcile", flag.ExitOnError)
	var in inputs
	var lim limits
	in.register(fs)
	lim.register(fs)
	d := registerAddr(fs)
	strategy := registerStrategy(fs)
	fs.Parse(args)
	return execute(ctx, &in, &lim, *strategy, d, server.Request{Op: "reconcile"}, nil)
}

func runConform(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("conform", flag.ExitOnError)
	var in inputs
	var lim limits
	in.register(fs)
	lim.register(fs)
	d := registerAddr(fs)
	provider := fs.String("provider", "k8s", "inflexible provider party")
	strategy := registerStrategy(fs)
	fs.Parse(args)
	return execute(ctx, &in, &lim, *strategy, d, server.Request{Op: "conform", Provider: *provider}, nil)
}

func runNegotiate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("negotiate", flag.ExitOnError)
	var in inputs
	var lim limits
	in.register(fs)
	lim.register(fs)
	d := registerAddr(fs)
	rounds := fs.Int("rounds", 0, "max revision rounds (0 = default)")
	strategy := registerStrategy(fs)
	federated := fs.Bool("federated", false,
		"negotiate across muppetd peers named by -peers, acting as the coordinator")
	peers := fs.String("peers", "",
		"federated peer list, name=url pairs: k8s=http://host:port,istio=http://host:port")
	transcriptPath := fs.String("transcript", "", "append the HMAC-chained negotiation transcript to this file")
	transcriptKey := fs.String("transcript-key", "", "shared HMAC key for -transcript")
	fs.Parse(args)
	req := server.Request{Op: "negotiate", Rounds: *rounds}
	if *federated || *peers != "" {
		if *peers == "" {
			return fmt.Errorf("%w: -federated needs -peers (name=url,...)", server.ErrUsage)
		}
		req.Peers = *peers
		if d.addr != "" {
			// A daemon coordinator is addressed by putting peers in the
			// request body; the CLI's -federated mode coordinates locally.
			return execute(ctx, &in, &lim, *strategy, d, req, nil)
		}
		return execute(ctx, &in, &lim, *strategy, d, req,
			&federation{transcriptPath: *transcriptPath, transcriptKey: *transcriptKey})
	}
	if *transcriptPath != "" {
		return fmt.Errorf("%w: -transcript records federated negotiations; add -federated -peers", server.ErrUsage)
	}
	return execute(ctx, &in, &lim, *strategy, d, req, nil)
}

// federation is a federated negotiation this process coordinates: the
// transcript it appends to and the counters -v reports.
type federation struct {
	transcriptPath, transcriptKey string

	rounds   int
	retries  map[string]int64
	breakers map[string]string
}

// options wires the coordinator's robustness hooks to f's counters.
func (f *federation) options(retries int) *server.FedOptions {
	f.retries = make(map[string]int64)
	f.breakers = make(map[string]string)
	opts := &server.FedOptions{
		Retries:   retries,
		OnRound:   func() { f.rounds++ },
		OnRetry:   func(peer string) { f.retries[peer]++ },
		OnBreaker: func(peer string, bs feder.BreakerState) { f.breakers[peer] = bs.String() },
	}
	if retries == 0 {
		opts.Retries = -1 // the flag's 0 means none; feder's 0 means default
	}
	return opts
}

// print reports the -v federation statistics: rounds driven, per-peer
// retry attempts, and where each peer's circuit breaker ended up.
func (f *federation) print() {
	var parts []string
	for _, peer := range sortedPeerNames(f.retries) {
		parts = append(parts, fmt.Sprintf("%s=%d", peer, f.retries[peer]))
	}
	fmt.Printf("// fed: %d rounds; retries: %s\n", f.rounds, strings.Join(parts, " "))
	parts = parts[:0]
	for _, peer := range sortedPeerNames(f.breakers) {
		parts = append(parts, fmt.Sprintf("%s=%s", peer, f.breakers[peer]))
	}
	fmt.Printf("// fed: breakers: %s\n", strings.Join(parts, " "))
}

func sortedPeerNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// runTranscript serves the transcript verbs: `muppet transcript verify
// -key K FILE` re-walks an HMAC-chained negotiation transcript and
// reports whether the chain is intact.
func runTranscript(_ context.Context, args []string) error {
	if len(args) < 1 || args[0] != "verify" {
		return fmt.Errorf("%w: usage: muppet transcript verify -key KEY FILE", server.ErrUsage)
	}
	fs := flag.NewFlagSet("transcript verify", flag.ExitOnError)
	key := fs.String("key", "", "shared HMAC key the transcript was written with")
	fs.Parse(args[1:])
	if fs.NArg() != 1 {
		return fmt.Errorf("%w: usage: muppet transcript verify -key KEY FILE", server.ErrUsage)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := feder.VerifyTranscript(f, []byte(*key))
	if err != nil {
		fmt.Printf("INVALID after %d entries: %v\n", n, err)
		return statusErr(exitUnsat)
	}
	fmt.Printf("OK: %d entries verified\n", n)
	return nil
}

func runEval(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	var in inputs
	in.register(fs)
	src := fs.String("src", "", "source service")
	dst := fs.String("dst", "", "destination service")
	port := fs.Int("port", 0, "destination port")
	fs.Parse(args)
	if *src == "" || *dst == "" || *port == 0 {
		return fmt.Errorf("eval needs -src, -dst and -port")
	}
	if in.cfg.Files == "" {
		return fmt.Errorf("-files is required")
	}
	bundle, err := muppet.LoadFiles(strings.Split(in.cfg.Files, ",")...)
	if err != nil {
		return err
	}
	v := muppet.Evaluate(bundle.Mesh, bundle.K8s, bundle.Istio,
		muppet.Flow{Src: *src, Dst: *dst, DstPort: *port})
	if v.Allowed {
		fmt.Println("ALLOWED")
		return nil
	}
	fmt.Println("DENIED:", v.Reason)
	return statusErr(exitUnsat)
}
