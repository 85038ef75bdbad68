let current = "2.0.0"
