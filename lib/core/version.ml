let current = "2.1.0"
