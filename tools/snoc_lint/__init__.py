# snoc_lint: project-wide static analysis for the simulator.
#
# Run as a directory (`python3 tools/snoc_lint`); `--only
# determinism,rng,allowlist` runs just the determinism family.
# See tools/snoc_lint/__main__.py for the CLI and DESIGN.md §11 for the
# architecture and the how-to-add-a-checker recipe.
