package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMain, set in a child's environment, makes the test binary run the
// command instead of its tests.
const runMain = "CLUSTERBFT_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutDigests runs each command line testdata/stdout.sha256 lists,
// as a child process of the test binary, and holds its stdout to the
// sha256 recorded beside it: the byte identity of the command's report.
func TestStdoutDigests(t *testing.T) {
	f, err := os.Open("testdata/stdout.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := bufio.NewScanner(f)
	for lines.Scan() {
		if strings.HasPrefix(lines.Text(), "#") {
			continue
		}
		want, command, _ := strings.Cut(lines.Text(), "  ")
		cmd := exec.Command(os.Args[0], strings.Fields(command)[1:]...)
		cmd.Env = append(os.Environ(), runMain+"=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v", command, err)
		}
		if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: stdout sha256 %x, want %s; stdout:\n%s", command, sum, want, out)
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
}
