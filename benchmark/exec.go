package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// childEnv is the environment of every build and pass: the caller's, minus
// the settings that would change what is measured (GC and scheduler knobs,
// build flags), plus extra.
func childEnv(extra ...string) []string {
	drop := map[string]bool{"GOGC": true, "GODEBUG": true, "GOMAXPROCS": true, "ROCKTM_SCHED": true, "GOFLAGS": true}
	var env []string
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); !drop[k] {
			env = append(env, kv)
		}
	}
	return append(env, extra...)
}

// command is exec.CommandContext for a child that runs in its own process
// group, so that cancelling kills it together with everything it started.
func command(ctx context.Context, env []string, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = env
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	return cmd
}

// usage is what one figures process cost: wall-clock from exec to exit,
// user+system CPU time and peak resident set.
type usage struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// spawn is the benchmark's -spawn mode: it runs args as a command with stdout
// and stderr passed through and writes the command's usage as JSON to file
// descriptor 3. Passes run under this small intermediate process because
// Linux counts the parent's resident set at exec time in a child's maxrss,
// and the benchmark process holds more memory than a warm figures pass
// uses.
func spawn(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -spawn needs a command")
		return 2
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	u := usage{WallS: time.Since(start).Seconds()}
	if st := cmd.ProcessState; st != nil {
		u.CPUS = (st.UserTime() + st.SystemTime()).Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			u.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if werr := json.NewEncoder(os.NewFile(3, "usage")).Encode(u); werr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -spawn:", werr)
		return 2
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -spawn:", err)
		return 2
	}
	return 0
}

// pass is one timed run of the figures binary.
type pass struct {
	usage

	stdout []byte
	// lines are the stderr lines of a traced pass, with their arrival time
	// since the pass started.
	lines []timedLine
	err   error
}

type timedLine struct {
	at   time.Duration
	text string
}

// runPass runs bin with args under the spawner and returns its usage and
// output. With traced set it reads stderr line by line as it arrives,
// stamping each line.
func runPass(ctx context.Context, bin string, args, env []string, traced bool) pass {
	self, err := os.Executable()
	if err != nil {
		return pass{err: err}
	}
	ur, uw, err := os.Pipe()
	if err != nil {
		return pass{err: err}
	}
	defer ur.Close()
	cmd := command(ctx, env, self, append([]string{"-spawn", "--", bin}, args...)...)
	cmd.ExtraFiles = []*os.File{uw}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	var pipe io.ReadCloser
	if traced {
		if pipe, err = cmd.StderrPipe(); err != nil {
			uw.Close()
			return pass{err: err}
		}
	} else {
		cmd.Stderr = &stderr
	}
	start := time.Now()
	err = cmd.Start()
	uw.Close()
	if err != nil {
		return pass{err: err}
	}
	var lines []timedLine
	if traced {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			lines = append(lines, timedLine{time.Since(start), sc.Text()})
			stderr.WriteString(sc.Text() + "\n")
		}
	}
	err = cmd.Wait()
	p := pass{stdout: stdout.Bytes(), lines: lines}
	if uerr := json.NewDecoder(ur).Decode(&p.usage); uerr != nil && err == nil {
		err = fmt.Errorf("read usage: %w", uerr)
	}
	if err != nil {
		p.err = fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	return p
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// goBuild runs `go build` in dir and returns how long it took.
func goBuild(ctx context.Context, dir string, args ...string) (time.Duration, error) {
	cmd := command(ctx, childEnv(), "go", append([]string{"build"}, args...)...)
	cmd.Dir = dir
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("go build %s in %s: %w\n%s", strings.Join(args, " "), dir, err, out)
	}
	return time.Since(start), nil
}

// copySource copies what building cmd/figures and the probe needs — every
// go.mod, go.sum, non-test .go file and PGO profile — from root to dst,
// skipping hidden directories (the VCS, build and result caches) and
// testdata.
func copySource(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		keep := name == "go.mod" || name == "go.sum" || strings.HasSuffix(name, ".pgo") ||
			(strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"))
		if !keep || !d.Type().IsRegular() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// build is one set-up's products.
type build struct {
	figures, probe string
	// cacheDir is the result cache a warm workload renders from ("" for
	// the others), and coldOut the output of the run that filled it.
	cacheDir string
	coldOut  []byte
}

// setUp copies the source into dir and, timed, builds cmd/figures the way
// users do (its default.pgo applies automatically) and the probe with the
// same profile; a warm workload's set-up also fills its result cache. The
// fresh source path makes the Go build cache miss for every repository
// package while the standard library stays cached, so the time moves with
// the repository's own code.
func setUp(ctx context.Context, root, dir string, w workload, seed uint64) (build, time.Duration, error) {
	src := filepath.Join(dir, "src")
	if err := copySource(root, src); err != nil {
		return build{}, 0, fmt.Errorf("copy source: %w", err)
	}
	b := build{figures: filepath.Join(dir, "figures"), probe: filepath.Join(dir, "probe")}
	pgo := "-pgo=off"
	if profile := filepath.Join(src, "cmd", "figures", "default.pgo"); fileExists(profile) {
		pgo = "-pgo=" + profile
	}
	took, err := goBuild(ctx, src, "-o", b.figures, "./cmd/figures")
	if err != nil {
		return build{}, 0, err
	}
	t, err := goBuild(ctx, filepath.Join(src, "benchmark"), pgo, "-o", b.probe, "./probe")
	if err != nil {
		return build{}, 0, err
	}
	took += t
	if w.warm {
		b.cacheDir = filepath.Join(dir, "cache")
		p := runPass(ctx, b.figures, w.args(seed, b.cacheDir), childEnv(), false)
		if p.err != nil {
			return build{}, 0, fmt.Errorf("fill result cache: %w", p.err)
		}
		took += time.Duration(p.WallS * float64(time.Second))
		b.coldOut = p.stdout
	}
	return b, took, nil
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}
