module statefulentities.dev/stateflow/benchmark

go 1.24

require statefulentities.dev/stateflow v0.0.0

replace statefulentities.dev/stateflow => ../
