package cli

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"armsefi/internal/core/sched"
)

// TestExitStatus pins the commands' exit statuses: 2 for an invalid
// campaign configuration, as for a malformed flag, and 1 for any other
// failure. Exit ends the process, so each case runs in a child test
// process.
func TestExitStatus(t *testing.T) {
	switch os.Getenv("CLI_EXIT_CASE") {
	case "config":
		Exit("cmd", fmt.Errorf("engine: %w: -1 faults per component", sched.ErrConfig))
	case "other":
		Exit("cmd", errors.New("disk full"))
	}
	for kind, want := range map[string]int{"config": 2, "other": 1} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExitStatus$")
		cmd.Env = append(os.Environ(), "CLI_EXIT_CASE="+kind)
		var ee *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &ee) || ee.ExitCode() != want {
			t.Errorf("%s error: exit %v, want status %d", kind, err, want)
		}
	}
}
