C     MAIN's local X is other storage than the /B/ X that callee F updates:
C     why and an assertion on X in MAIN/10 must not mix the two up.
      PROGRAM MAIN
      REAL X(100)
      INTEGER I
      DO 10 I = 1, 10
        CALL F
        X(I) = X(I) + 1
10    CONTINUE
      END

      SUBROUTINE F
      COMMON /B/ X(100)
      INTEGER K
      DO 20 K = 2, 100
        X(K) = X(K) * 0.5 + K
20    CONTINUE
      END
