C     X is /B/ storage that only callee F declares: MAIN/10 reaches it
C     through the call, as a sum reduction whose cells the DDA ignores.
      PROGRAM MAIN
      INTEGER I
      DO 10 I = 1, 10
        CALL F
10    CONTINUE
      END

      SUBROUTINE F
      COMMON /B/ X(100)
      INTEGER K
      DO 20 K = 2, 100
        X(K) = X(K) + K
20    CONTINUE
      END
