// Command deadcode is the reachability audit's fixture: main reaches
// lib.Used and nothing reaches lib.Orphan.
package main

import "fixture/internal/lib"

func main() { lib.Used() }
