// Front-end agreement: every policy name core.ParseController accepts
// must run on every front end — fdtsim -policy, a traced fdtsim run,
// fdtsweep -policies and an fdtd job's "policies" — and a name that
// is incompatible with the other inputs must be rejected by each of
// them with the same RunSpec.Validate error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/service"
)

// policyNames is every name (and alias) core.ParseController accepts.
var policyNames = []string{
	"sat", "bat", "sat+bat", "combined", "fdt", "serial", "static", "static:2",
	"adaptive", "hillclimb", "hill-climb", "hybrid",
}

// frontEnd runs one policy name through one front end on a small
// machine, with extra inputs ("-power-budget 4" on the CLIs, the
// same budget in the daemon's Spec), and reports its exit code and
// error output.
type frontEnd func(t *testing.T, policy string, budget bool) (code int, stderr string)

func TestPolicyNamesOnEveryFrontEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs every policy on each")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/fdtsim", "./cmd/fdtsweep")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cli := func(name string, args ...string) frontEnd {
		return func(t *testing.T, policy string, budget bool) (int, string) {
			a := append([]string{"-workload", "ep", "-cores", "8"}, args...)
			a = append(a, policy)
			if budget {
				a = append(a, "-power-budget", "4")
			}
			cmd := exec.Command(filepath.Join(bin, name), a...)
			var errb bytes.Buffer
			cmd.Stdout, cmd.Stderr = io.Discard, &errb
			err := cmd.Run()
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				return ee.ExitCode(), errb.String()
			} else if err != nil {
				t.Fatalf("%s %v: %v", name, a, err)
			}
			return 0, errb.String()
		}
	}

	svc := service.New(service.Config{Workers: 2})
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	daemon := func(t *testing.T, policy string, budget bool) (int, string) {
		spec := map[string]any{"workload": "ep", "cores": 8, "policies": []string{policy}}
		if budget {
			spec["power_budget"] = 4
		}
		blob, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		var v struct{ ID, Status, Error string }
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return resp.StatusCode, v.Error
		}
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			j, ok := svc.Job(v.ID)
			if !ok {
				t.Fatalf("job %s vanished", v.ID)
			}
			switch j.Status() {
			case service.StatusDone:
				return 0, ""
			case service.StatusFailed:
				return 1, j.Snapshot(false).Error
			}
		}
		t.Fatalf("job %s never finished", v.ID)
		return 0, ""
	}

	fronts := []struct {
		name string
		run  frontEnd
	}{
		{"fdtsim", cli("fdtsim", "-policy")},
		// The traced run (fdtsim -trace) forces exact execution and
		// arms the tracer; its row keeps the name of the fdttrace
		// command it replaced.
		{"fdttrace", cli("fdtsim", "-trace", filepath.Join(t.TempDir(), "t.json"), "-policy")},
		{"fdtsweep", cli("fdtsweep", "-threads", "1", "-policies")},
		{"fdtd", daemon},
	}
	ladder := machine.DefaultConfig().WithCores(8).WithFreq(machine.DefaultLadder())
	for _, name := range policyNames {
		ctl, err := core.ParseController(name)
		if err != nil {
			t.Fatalf("ParseController(%q): %v", name, err)
		}
		want := core.RunSpec{Cfg: ladder, Control: ctl, Power: &core.PowerParams{Budget: 4, LockState: -1}}.Validate()
		for _, fe := range fronts {
			t.Run(fmt.Sprintf("%s/%s", fe.name, name), func(t *testing.T) {
				if code, errOut := fe.run(t, name, false); code != 0 {
					t.Errorf("rejected: exit %d: %s", code, errOut)
				}
				code, errOut := fe.run(t, name, true)
				switch {
				case want == nil && code != 0:
					t.Errorf("rejected under a power budget: exit %d: %s", code, errOut)
				case want != nil && (code == 0 || !strings.Contains(errOut, want.Error())):
					t.Errorf("under a power budget: exit %d, output %q; want the Validate error %q", code, errOut, want)
				}
			})
		}
	}
}
