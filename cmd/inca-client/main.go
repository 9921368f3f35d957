// Command inca-client talks to a running inca-serve instance through the
// retrying HTTP client: transport failures and 5xx answers retry with
// capped backoff and seeded jitter, Retry-After hints from a saturated
// server raise the wait floor, and 4xx answers fail immediately.
//
// Usage:
//
//	inca-client [-base URL] [-attempts N] [-timeout D] <command> [flags]
//
// Commands:
//
//	simulate  -arch inca -model ResNet18 -phase inference [-batch N]
//	sweep     -archs inca,baseline -models LeNet5 -phases inference,training
//	job       durable async jobs: submit | status | wait | result | cancel | list
//	trace     print one trace's federated tree, or list recent traces
//	usage     fetch the server's cost-attribution rollup
//	models    list the server's model zoo
//	metrics   fetch the server's counter snapshot
//	ready     probe /healthz/ready once (no retries); exit 0 when ready
//
// The job verbs drive the server's durable async API: `job submit`
// takes sweep's flags and answers immediately with the job's snapshot
// (IDs are content-derived, so resubmitting is idempotent), `job wait`
// polls until the job is terminal and survives the server restarting
// mid-job, and `job result` prints the server's result bytes verbatim
// — byte-identical whether the job ran through or was crash-resumed.
//
//	id=$(inca-client job submit -models LeNet5 | jq -r .id)
//	inca-client job wait "$id"
//	inca-client job result "$id" > result.json
//
// Every command prints the server's JSON answer to stdout (`job
// result` prints the stored result body unmodified).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/inca-arch/inca"
	"github.com/inca-arch/inca/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inca-client", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "http://127.0.0.1:8321", "service base URL")
	attempts := fs.Int("attempts", 4, "max attempts per request, including the first")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall deadline for the command")
	baseDelay := fs.Duration("base-delay", 100*time.Millisecond, "backoff before the first retry")
	maxDelay := fs.Duration("max-delay", 2*time.Second, "backoff growth cap (Retry-After can exceed it)")
	seed := fs.Int64("seed", 0, "retry-jitter seed (reproducible schedules)")
	trace := fs.Bool("trace", false, "print the server-returned trace ID (X-Trace-Id) to stderr")
	logLevel := cli.LogLevelFlag(fs)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: inca-client [flags] {simulate|sweep|job|trace|usage|models|metrics|ready} [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	logger, err := cli.NewLogger(stderr, *logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "inca-client:", err)
		return 2
	}

	opt := inca.ClientOptions{
		MaxAttempts: *attempts,
		BaseDelay:   *baseDelay,
		MaxDelay:    *maxDelay,
		Seed:        *seed,
		Logger:      logger,
	}
	if *trace {
		// Stderr keeps stdout parseable; the ID is the handle for
		// GET /v1/trace/{id} on a tracing server.
		opt.OnTrace = func(traceID string) {
			fmt.Fprintln(stderr, "trace:", traceID)
		}
	}
	c, err := inca.NewClient(*base, opt)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	cmd, rest := fs.Arg(0), fs.Args()[1:]
	var out any
	switch cmd {
	case "simulate":
		out, err = runSimulate(ctx, c, rest, stderr)
	case "sweep":
		out, err = runSweep(ctx, c, rest, stderr)
	case "job":
		out, err = runJob(ctx, c, rest, stdout, stderr)
	case "models":
		out, err = c.Models(ctx)
	case "metrics":
		out, err = c.Metrics(ctx)
	case "trace":
		out, err = runTrace(ctx, c, rest, stdout, stderr)
	case "usage":
		out, err = c.Usage(ctx)
	case "ready":
		// A single unretried probe: scripts poll a booting (or cluster)
		// node for readiness, and a retried probe would lie about it.
		if err = c.Ready(ctx); err == nil {
			out = map[string]string{"status": "ready"}
		}
	default:
		fmt.Fprintf(stderr, "inca-client: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
	if err != nil {
		if errors.Is(err, errUsage) {
			return 2
		}
		fmt.Fprintln(stderr, "inca-client:", err)
		return 1
	}
	if out == nil {
		// The command wrote its answer itself (job result streams the
		// stored bytes verbatim — re-encoding would break byte-identity).
		return 0
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "inca-client:", err)
		return 1
	}
	return 0
}

// errUsage marks flag-parse failures whose message the FlagSet already
// printed; run maps it to exit code 2 without repeating the error.
var errUsage = errors.New("usage")

func runSimulate(ctx context.Context, c *inca.Client, args []string, stderr io.Writer) (any, error) {
	fs := flag.NewFlagSet("inca-client simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	arch := fs.String("arch", "inca", "architecture: any registered dataflow ID or alias (is/inca, ws/baseline, os, gpu, ...)")
	model := fs.String("model", "ResNet18", "model zoo network name")
	phase := fs.String("phase", "inference", "inference or training")
	batch := fs.Int("batch", 0, "batch-size override (0 = architecture default)")
	if err := fs.Parse(args); err != nil {
		return nil, errUsage
	}
	return c.Simulate(ctx, inca.ServiceSimulateRequest{
		Arch: *arch, Model: *model, Phase: *phase, Batch: *batch,
	})
}

func runSweep(ctx context.Context, c *inca.Client, args []string, stderr io.Writer) (any, error) {
	fs := flag.NewFlagSet("inca-client sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	archs := fs.String("archs", "inca,baseline", "comma-separated architecture axis: any registered dataflow IDs or aliases")
	models := fs.String("models", "LeNet5", "comma-separated model axis")
	phases := fs.String("phases", "inference", "comma-separated phase axis")
	batch := fs.Int("batch", 0, "batch-size override for every non-fixed arch (0 = defaults)")
	if err := fs.Parse(args); err != nil {
		return nil, errUsage
	}
	return c.Sweep(ctx, inca.ServiceSweepRequest{
		Archs:  splitList(*archs),
		Models: splitList(*models),
		Phases: splitList(*phases),
		Batch:  *batch,
	})
}

// runJob dispatches the durable-async-job verbs. Verbs that answer
// with a snapshot (or list) return it for the uniform JSON encoder;
// `result` writes the stored bytes straight to stdout and returns nil.
func runJob(ctx context.Context, c *inca.Client, args []string, stdout, stderr io.Writer) (any, error) {
	usage := func() {
		fmt.Fprintln(stderr, "usage: inca-client job {submit|status|wait|result|cancel|list} ...")
	}
	if len(args) == 0 {
		usage()
		return nil, errUsage
	}
	verb, rest := args[0], args[1:]
	// The id-taking verbs accept the job ID as the sole positional arg.
	wantID := func(fs *flag.FlagSet) (string, error) {
		if err := fs.Parse(rest); err != nil {
			return "", errUsage
		}
		if fs.NArg() != 1 {
			fmt.Fprintf(stderr, "usage: inca-client job %s <job-id>\n", verb)
			return "", errUsage
		}
		return fs.Arg(0), nil
	}
	switch verb {
	case "submit":
		fs := flag.NewFlagSet("inca-client job submit", flag.ContinueOnError)
		fs.SetOutput(stderr)
		archs := fs.String("archs", "inca,baseline", "comma-separated architecture axis: any registered dataflow IDs or aliases")
		models := fs.String("models", "LeNet5", "comma-separated model axis")
		phases := fs.String("phases", "inference", "comma-separated phase axis")
		batch := fs.Int("batch", 0, "batch-size override for every non-fixed arch (0 = defaults)")
		if err := fs.Parse(rest); err != nil {
			return nil, errUsage
		}
		return c.JobSubmit(ctx, inca.ServiceSweepRequest{
			Archs:  splitList(*archs),
			Models: splitList(*models),
			Phases: splitList(*phases),
			Batch:  *batch,
		})
	case "status":
		fs := flag.NewFlagSet("inca-client job status", flag.ContinueOnError)
		fs.SetOutput(stderr)
		id, err := wantID(fs)
		if err != nil {
			return nil, err
		}
		return c.JobStatus(ctx, id)
	case "wait":
		fs := flag.NewFlagSet("inca-client job wait", flag.ContinueOnError)
		fs.SetOutput(stderr)
		poll := fs.Duration("poll", 250*time.Millisecond, "status poll interval")
		id, err := wantID(fs)
		if err != nil {
			return nil, err
		}
		return c.JobWait(ctx, id, *poll)
	case "result":
		fs := flag.NewFlagSet("inca-client job result", flag.ContinueOnError)
		fs.SetOutput(stderr)
		id, err := wantID(fs)
		if err != nil {
			return nil, err
		}
		raw, err := c.JobResult(ctx, id)
		if err != nil {
			return nil, err
		}
		if _, err := stdout.Write(raw); err != nil {
			return nil, err
		}
		return nil, nil
	case "cancel":
		fs := flag.NewFlagSet("inca-client job cancel", flag.ContinueOnError)
		fs.SetOutput(stderr)
		id, err := wantID(fs)
		if err != nil {
			return nil, err
		}
		return c.JobCancel(ctx, id)
	case "list":
		return c.JobList(ctx)
	default:
		fmt.Fprintf(stderr, "inca-client: unknown job verb %q\n", verb)
		usage()
		return nil, errUsage
	}
}

// runTrace is the observability verb: with a trace ID it fetches the
// federated assembly and prints the rendered tree (the server merges
// cluster peers' spans, so on a coordinator the tree spans every node);
// without one it prints the server's trace index as JSON.
func runTrace(ctx context.Context, c *inca.Client, args []string, stdout, stderr io.Writer) (any, error) {
	fs := flag.NewFlagSet("inca-client trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	limit := fs.Int("limit", 0, "max index rows when listing traces (0 = server default)")
	asJSON := fs.Bool("json", false, "print the full span set as JSON instead of the rendered tree")
	if err := fs.Parse(args); err != nil {
		return nil, errUsage
	}
	switch fs.NArg() {
	case 0:
		return c.Traces(ctx, *limit)
	case 1:
		resp, err := c.Trace(ctx, fs.Arg(0))
		if err != nil {
			return nil, err
		}
		if *asJSON {
			return resp, nil
		}
		fmt.Fprint(stdout, resp.Tree)
		return nil, nil
	default:
		fmt.Fprintln(stderr, "usage: inca-client trace [-limit N] [-json] [trace-id]")
		return nil, errUsage
	}
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
